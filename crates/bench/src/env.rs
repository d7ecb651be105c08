//! The `JOCL_*` environment knobs, consolidated.
//!
//! Every bin, gate and bench reads its configuration through these
//! helpers — one place owns the parsing discipline instead of each
//! call site growing its own:
//!
//! * surrounding whitespace is trimmed and keywords are ASCII
//!   case-folded (`JOCL_SCHEDULE=Residual`, `" off "` both work);
//! * empty / blank values mean "unset" (the default applies);
//! * `off` disables where a knob is disableable;
//! * anything else invalid **panics loudly listing the valid forms** —
//!   a typo must never silently select a different configuration.
//!
//! | Knob | Meaning | Default |
//! |---|---|---|
//! | `JOCL_SCALE` | dataset scale | `0.02` |
//! | `JOCL_SEED` | generator seed | `42` |
//! | `JOCL_SCHEDULE` | LBP schedule (`synchronous`/`residual`) | synchronous |
//! | `JOCL_STREAM_BATCH` | streaming arrival batches | `4` |
//! | `JOCL_SNAPSHOT_DIR` | warm-snapshot directory | process temp dir |
//! | `JOCL_COMPACT_THRESHOLD` | auto-compaction density, `off` disables | `0.5` |
//! | `JOCL_LISTEN` | serve socket (`tcp:HOST:PORT`/`unix:PATH`), `off` disables | stdin loop |
//! | `JOCL_MSG_STORE` | committed-message arena (`exact`/`quantized`) | exact |
//! | `JOCL_LINK_THRESHOLD` | min `link` candidate confidence, `off` reports all | `0.0` |
//! | `JOCL_SIDE_INFO` | side-information TSV to import, `off` disables | none |
//! | `JOCL_TRAIN_EPOCHS` | joint train/inference epochs, `0` skips refinement | `4` |
//! | `JOCL_CESI_T` | CESI baseline clustering threshold | `0.84` |
//! | `JOCL_SIST_T` | SIST baseline clustering threshold | `0.45` |
//! | `JOCL_BENCH_BASELINE` | bench-regression baseline JSON path | `BENCH_BASELINE.json` |
//! | `JOCL_BENCH_TOLERANCE` | bench-regression relative tolerance | `0.30` |
//! | `JOCL_MEM_CEILING_MB` | memory-gate ceiling in MiB | per-gate preset |
//! | `JOCL_METRICS` | metrics recording (`on`/`off`) | on |
//! | `JOCL_TRACE` | span tracing + TSV dump on exit (`on`/`off`) | off |
//!
//! The `jocl-lint` R1 rule (env-confinement) machine-enforces this
//! consolidation: `JOCL_*` reads anywhere else fail CI.

use jocl_core::ScheduleMode;
use jocl_fg::MessageStore;
use jocl_serve::ListenAddr;

/// `JOCL_SCALE` env var: the dataset scale. Default 0.02;
/// whitespace-tolerant; anything but a finite positive number aborts
/// loudly listing the valid form (`1,0` must not silently run 0.02).
pub fn env_scale() -> f64 {
    match std::env::var("JOCL_SCALE") {
        Err(_) => 0.02,
        Ok(v) => {
            let trimmed = v.trim();
            if trimmed.is_empty() {
                return 0.02;
            }
            match trimmed.parse::<f64>() {
                Ok(s) if s.is_finite() && s > 0.0 => s,
                _ => panic!("JOCL_SCALE must be a positive number (e.g. 0.02), got {v:?}"),
            }
        }
    }
}

/// `JOCL_SEED` env var: the generator seed. Default 42;
/// whitespace-tolerant; anything but a non-negative integer aborts
/// loudly listing the valid form.
pub fn env_seed() -> u64 {
    match std::env::var("JOCL_SEED") {
        Err(_) => 42,
        Ok(v) => {
            let trimmed = v.trim();
            if trimmed.is_empty() {
                return 42;
            }
            match trimmed.parse::<u64>() {
                Ok(n) => n,
                _ => panic!("JOCL_SEED must be a non-negative integer, got {v:?}"),
            }
        }
    }
}

/// `JOCL_SCHEDULE` env var: `residual` selects residual-scheduled message
/// passing, `synchronous`/`sync` (or unset) the full sweeps. Parsed
/// case-insensitively with surrounding whitespace trimmed (so
/// `JOCL_SCHEDULE=Residual` and `JOCL_SCHEDULE=" residual "` both work);
/// anything else aborts loudly listing the valid values — a typo must
/// not silently time the wrong engine.
pub fn env_schedule_mode() -> ScheduleMode {
    match std::env::var("JOCL_SCHEDULE") {
        Err(_) => ScheduleMode::Synchronous,
        Ok(v) => match v.trim().to_ascii_lowercase().as_str() {
            "" | "sync" | "synchronous" => ScheduleMode::Synchronous,
            "residual" => ScheduleMode::Residual,
            _ => panic!("JOCL_SCHEDULE must be 'synchronous' or 'residual', got {v:?}"),
        },
    }
}

/// `JOCL_STREAM_BATCH` env var: how many arrival batches the streaming
/// replay (`stream` bin, `stream_scale` gate) splits the dataset into.
/// Default 4; whitespace-tolerant; anything but a positive integer
/// aborts loudly listing the valid form.
pub fn env_stream_batches() -> usize {
    match std::env::var("JOCL_STREAM_BATCH") {
        Err(_) => 4,
        Ok(v) => {
            let trimmed = v.trim();
            if trimmed.is_empty() {
                return 4;
            }
            match trimmed.parse::<usize>() {
                Ok(n) if n >= 1 => n,
                _ => panic!(
                    "JOCL_STREAM_BATCH must be a positive integer (number of arrival \
                     batches), got {v:?}"
                ),
            }
        }
    }
}

/// `JOCL_SNAPSHOT_DIR` env var: where the `serve` bin writes/reads warm
/// session snapshots (and, in listen mode, the replication feed log).
/// Whitespace-trimmed; unset or empty means "use a process-scoped temp
/// directory". The serve bin creates the directory on first snapshot;
/// an uncreatable path fails there with the offending path in the
/// error, never a silent fallback elsewhere.
pub fn env_snapshot_dir() -> Option<std::path::PathBuf> {
    match std::env::var("JOCL_SNAPSHOT_DIR") {
        Err(_) => None,
        Ok(v) => {
            let trimmed = v.trim();
            if trimmed.is_empty() {
                None
            } else {
                Some(std::path::PathBuf::from(trimmed))
            }
        }
    }
}

/// `JOCL_COMPACT_THRESHOLD` env var: the tombstone (dead-factor) density
/// above which the serving session compacts (cold rebuild from the
/// survivors). Default 0.5; whitespace-tolerant; `off` (case-folded)
/// disables automatic compaction. Anything else must parse as a finite
/// number in `[0, 1]` or the process aborts loudly listing the valid
/// forms — a typo must not silently pick a different compaction policy.
pub fn env_compact_threshold() -> f64 {
    match std::env::var("JOCL_COMPACT_THRESHOLD") {
        Err(_) => 0.5,
        Ok(v) => {
            let trimmed = v.trim();
            if trimmed.is_empty() {
                return 0.5;
            }
            if trimmed.eq_ignore_ascii_case("off") {
                return f64::INFINITY;
            }
            match trimmed.parse::<f64>() {
                Ok(t) if t.is_finite() && (0.0..=1.0).contains(&t) => t,
                _ => {
                    panic!("JOCL_COMPACT_THRESHOLD must be a density in [0, 1] or 'off', got {v:?}")
                }
            }
        }
    }
}

/// `JOCL_LISTEN` env var: where the `serve` bin listens for the line
/// protocol. Unset, blank or `off` (case-folded) means the PR-5
/// interactive stdin loop; otherwise `tcp:HOST:PORT` or `unix:PATH`
/// (port 0 picks a free port, reported on startup). A malformed spec
/// aborts loudly listing the valid forms — a typo must not silently
/// serve on stdin with no listener.
pub fn env_listen() -> Option<ListenAddr> {
    match std::env::var("JOCL_LISTEN") {
        Err(_) => None,
        Ok(v) => {
            let trimmed = v.trim();
            if trimmed.is_empty() || trimmed.eq_ignore_ascii_case("off") {
                return None;
            }
            match ListenAddr::parse(trimmed) {
                Ok(addr) => Some(addr),
                Err(e) => {
                    panic!("JOCL_LISTEN must be 'tcp:HOST:PORT', 'unix:PATH' or 'off': {e}")
                }
            }
        }
    }
}

/// `JOCL_MSG_STORE` env var: which committed-message representation a
/// long-lived session keeps between deltas. `exact` (or unset) commits
/// the engine's f64 arenas bit-for-bit; `quantized` halves their
/// resident bytes (per-block f64 anchors + f32 residuals). Trimmed and
/// case-folded; anything else aborts loudly listing the valid values —
/// a typo must not silently benchmark the wrong arena.
pub fn env_message_store() -> MessageStore {
    match std::env::var("JOCL_MSG_STORE") {
        Err(_) => MessageStore::Exact,
        Ok(v) => match v.trim().to_ascii_lowercase().as_str() {
            "" | "exact" => MessageStore::Exact,
            "quantized" | "quant" => MessageStore::Quantized,
            _ => panic!("JOCL_MSG_STORE must be 'exact' or 'quantized', got {v:?}"),
        },
    }
}

/// `JOCL_LINK_THRESHOLD` env var: the default minimum calibrated
/// confidence a `link` candidate must reach to be reported
/// (`ServeConfig::link_threshold`). Default 0.0 (report everything);
/// whitespace-tolerant; `off` (case-folded) also reports everything.
/// Anything else must parse as a finite confidence in `[0, 1]` or the
/// process aborts loudly listing the valid forms.
pub fn env_link_threshold() -> f64 {
    match std::env::var("JOCL_LINK_THRESHOLD") {
        Err(_) => 0.0,
        Ok(v) => {
            let trimmed = v.trim();
            if trimmed.is_empty() || trimmed.eq_ignore_ascii_case("off") {
                return 0.0;
            }
            match trimmed.parse::<f64>() {
                Ok(t) if t.is_finite() && (0.0..=1.0).contains(&t) => t,
                _ => {
                    panic!("JOCL_LINK_THRESHOLD must be a confidence in [0, 1] or 'off', got {v:?}")
                }
            }
        }
    }
}

/// `JOCL_SIDE_INFO` env var: path of a side-information TSV
/// (`jocl_kb::tsv::read_side_kb` format — alias tables / external-KB
/// link imports) the `serve` bin threads into inference and the `link`
/// command. Whitespace-trimmed; unset, blank or `off` (case-folded)
/// means no side information. The path is read at startup; a missing or
/// malformed file fails there with the offending path and line in the
/// error, never a silent fallback to side-info-free serving.
pub fn env_side_info() -> Option<std::path::PathBuf> {
    match std::env::var("JOCL_SIDE_INFO") {
        Err(_) => None,
        Ok(v) => {
            let trimmed = v.trim();
            if trimmed.is_empty() || trimmed.eq_ignore_ascii_case("off") {
                None
            } else {
                Some(std::path::PathBuf::from(trimmed))
            }
        }
    }
}

/// `JOCL_TRAIN_EPOCHS` env var: how many joint train/inference epochs
/// the pipeline runs (0 skips iterative refinement entirely, useful for
/// ablations). Default 4; whitespace-tolerant; anything but a
/// non-negative integer aborts loudly listing the valid form.
pub fn env_train_epochs() -> usize {
    match std::env::var("JOCL_TRAIN_EPOCHS") {
        Err(_) => 4,
        Ok(v) => {
            let trimmed = v.trim();
            if trimmed.is_empty() {
                return 4;
            }
            match trimmed.parse::<usize>() {
                Ok(n) => n,
                _ => panic!(
                    "JOCL_TRAIN_EPOCHS must be a non-negative integer (0 skips \
                     refinement), got {v:?}"
                ),
            }
        }
    }
}

/// Shared parser for the unit-interval baseline thresholds
/// (`JOCL_CESI_T`, `JOCL_SIST_T`): trimmed, default on unset/blank,
/// typed panic outside `[0, 1]`.
fn env_unit_threshold(name: &str, default: f64) -> f64 {
    match std::env::var(name) {
        Err(_) => default,
        Ok(v) => {
            let trimmed = v.trim();
            if trimmed.is_empty() {
                return default;
            }
            match trimmed.parse::<f64>() {
                Ok(t) if t.is_finite() && (0.0..=1.0).contains(&t) => t,
                _ => panic!("{name} must be a threshold in [0, 1], got {v:?}"),
            }
        }
    }
}

/// `JOCL_CESI_T` env var: the CESI-baseline hierarchical-clustering
/// cut threshold used by the `table1` bin (default 0.84, the paper's
/// reported operating point).
pub fn env_cesi_threshold() -> f64 {
    env_unit_threshold("JOCL_CESI_T", 0.84)
}

/// `JOCL_SIST_T` env var: the SIST-baseline clustering threshold used
/// by the `table1` bin (default 0.45).
pub fn env_sist_threshold() -> f64 {
    env_unit_threshold("JOCL_SIST_T", 0.45)
}

/// `JOCL_BENCH_BASELINE` env var: where the bench-regression gate reads
/// (and `--update` writes) its baseline JSON. Whitespace-trimmed; unset
/// or blank means the checked-in `BENCH_BASELINE.json` at the repo root.
pub fn env_bench_baseline() -> Option<std::path::PathBuf> {
    match std::env::var("JOCL_BENCH_BASELINE") {
        Err(_) => None,
        Ok(v) => {
            let trimmed = v.trim();
            if trimmed.is_empty() {
                None
            } else {
                Some(std::path::PathBuf::from(trimmed))
            }
        }
    }
}

/// `JOCL_BENCH_TOLERANCE` env var: the relative slack the
/// bench-regression gate allows around each calibrated baseline metric.
/// Default 0.30 (±30%); whitespace-tolerant; anything but a finite
/// non-negative number aborts loudly listing the valid form.
pub fn env_bench_tolerance() -> f64 {
    match std::env::var("JOCL_BENCH_TOLERANCE") {
        Err(_) => 0.30,
        Ok(v) => {
            let trimmed = v.trim();
            if trimmed.is_empty() {
                return 0.30;
            }
            match trimmed.parse::<f64>() {
                Ok(t) if t.is_finite() && t >= 0.0 => t,
                _ => panic!(
                    "JOCL_BENCH_TOLERANCE must be a non-negative relative slack \
                     (e.g. 0.30 for ±30%), got {v:?}"
                ),
            }
        }
    }
}

/// `JOCL_MEM_CEILING_MB` env var: the resident-memory ceiling (MiB) a
/// memory gate asserts against. Each gate passes its own `default`
/// preset (the paper-scale gates budget differently from the stress
/// preset). Whitespace-tolerant; anything but a positive integer aborts
/// loudly listing the valid form.
pub fn env_mem_ceiling_mb(default: u64) -> u64 {
    match std::env::var("JOCL_MEM_CEILING_MB") {
        Err(_) => default,
        Ok(v) => {
            let trimmed = v.trim();
            if trimmed.is_empty() {
                return default;
            }
            match trimmed.parse::<u64>() {
                Ok(n) if n >= 1 => n,
                _ => panic!(
                    "JOCL_MEM_CEILING_MB must be a positive integer (ceiling in MiB), got {v:?}"
                ),
            }
        }
    }
}

/// Shared parser for the observability switches (`JOCL_METRICS`,
/// `JOCL_TRACE`): trimmed, case-folded, `on`/`1`/`true` and
/// `off`/`0`/`false` accepted, default on unset/blank, typed panic on
/// anything else.
fn env_switch(name: &str, default: bool) -> bool {
    match std::env::var(name) {
        Err(_) => default,
        Ok(v) => match v.trim().to_ascii_lowercase().as_str() {
            "" => default,
            "on" | "1" | "true" => true,
            "off" | "0" | "false" => false,
            _ => panic!("{name} must be 'on' or 'off', got {v:?}"),
        },
    }
}

/// `JOCL_METRICS` env var: whether the `jocl_obs` metric registry
/// records events (counters / histograms on the hot paths). Default on;
/// `off` makes every recording site a branch-and-return, for overhead
/// A/B runs — the `obs_scale` gate certifies inference is bitwise
/// identical either way.
pub fn env_metrics() -> bool {
    env_switch("JOCL_METRICS", true)
}

/// `JOCL_TRACE` env var: whether `jocl_obs` span tracing records into
/// its bounded ring (and the bins dump the span TSV to stderr on exit).
/// Default off.
pub fn env_trace() -> bool {
    env_switch("JOCL_TRACE", false)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Satellite regression: the env knobs must accept mixed case and
    /// stray whitespace (`JOCL_SCHEDULE=Residual` used to panic), and
    /// still reject garbage with the typed message listing valid values.
    /// One sequential test so the process-global env is never torn.
    #[test]
    fn env_knobs_trim_and_ignore_case() {
        let check_schedule = |value: &str, expect: ScheduleMode| {
            std::env::set_var("JOCL_SCHEDULE", value);
            assert_eq!(env_schedule_mode(), expect, "JOCL_SCHEDULE={value:?}");
        };
        check_schedule("Residual", ScheduleMode::Residual);
        check_schedule(" residual\t", ScheduleMode::Residual);
        check_schedule("SYNCHRONOUS", ScheduleMode::Synchronous);
        check_schedule("  Sync ", ScheduleMode::Synchronous);
        check_schedule("", ScheduleMode::Synchronous);
        std::env::set_var("JOCL_SCHEDULE", "residul");
        let err = std::panic::catch_unwind(env_schedule_mode).unwrap_err();
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("'synchronous' or 'residual'"), "panic lists valid values: {msg}");
        std::env::remove_var("JOCL_SCHEDULE");
        assert_eq!(env_schedule_mode(), ScheduleMode::Synchronous);

        let check_batches = |value: &str, expect: usize| {
            std::env::set_var("JOCL_STREAM_BATCH", value);
            assert_eq!(env_stream_batches(), expect, "JOCL_STREAM_BATCH={value:?}");
        };
        check_batches("8", 8);
        check_batches("  16\t", 16);
        check_batches("", 4);
        std::env::set_var("JOCL_STREAM_BATCH", "zero");
        let err = std::panic::catch_unwind(env_stream_batches).unwrap_err();
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("positive integer"), "panic lists the valid form: {msg}");
        std::env::set_var("JOCL_STREAM_BATCH", "0");
        assert!(std::panic::catch_unwind(env_stream_batches).is_err(), "zero batches rejected");
        std::env::remove_var("JOCL_STREAM_BATCH");
        assert_eq!(env_stream_batches(), 4);

        // Serving knobs (PR-5 satellites): same trim/case-fold + typed
        // panic discipline.
        let check_threshold = |value: &str, expect: f64| {
            std::env::set_var("JOCL_COMPACT_THRESHOLD", value);
            assert_eq!(env_compact_threshold(), expect, "JOCL_COMPACT_THRESHOLD={value:?}");
        };
        check_threshold("0.25", 0.25);
        check_threshold(" 0.75\t", 0.75);
        check_threshold("0", 0.0);
        check_threshold("1", 1.0);
        check_threshold("", 0.5);
        check_threshold("OFF", f64::INFINITY);
        check_threshold(" off ", f64::INFINITY);
        for bad in ["1.5", "-0.1", "NaN", "inf", "half"] {
            std::env::set_var("JOCL_COMPACT_THRESHOLD", bad);
            let err = std::panic::catch_unwind(env_compact_threshold).unwrap_err();
            let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
            assert!(msg.contains("[0, 1]"), "{bad:?} must list the valid form: {msg}");
        }
        std::env::remove_var("JOCL_COMPACT_THRESHOLD");
        assert_eq!(env_compact_threshold(), 0.5);

        std::env::set_var("JOCL_SNAPSHOT_DIR", "  /tmp/jocl snapshots ");
        assert_eq!(
            env_snapshot_dir(),
            Some(std::path::PathBuf::from("/tmp/jocl snapshots")),
            "inner whitespace survives, outer is trimmed"
        );
        std::env::set_var("JOCL_SNAPSHOT_DIR", "   ");
        assert_eq!(env_snapshot_dir(), None, "blank means unset");
        std::env::remove_var("JOCL_SNAPSHOT_DIR");
        assert_eq!(env_snapshot_dir(), None);

        // The networked-serving knob (PR-6): same discipline, `off`
        // keeps the stdin loop.
        let check_listen = |value: &str, expect: Option<ListenAddr>| {
            std::env::set_var("JOCL_LISTEN", value);
            assert_eq!(env_listen(), expect, "JOCL_LISTEN={value:?}");
        };
        check_listen("tcp:127.0.0.1:0", Some(ListenAddr::Tcp("127.0.0.1:0".into())));
        check_listen(" tcp:0.0.0.0:7070\t", Some(ListenAddr::Tcp("0.0.0.0:7070".into())));
        check_listen("unix:/tmp/jocl.sock", Some(ListenAddr::Unix("/tmp/jocl.sock".into())));
        check_listen("", None);
        check_listen("  OFF ", None);
        for bad in ["7070", "tcp:", "udp:1:2", "unix:"] {
            std::env::set_var("JOCL_LISTEN", bad);
            let err = std::panic::catch_unwind(env_listen).unwrap_err();
            let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
            assert!(msg.contains("tcp:HOST:PORT"), "{bad:?} must list the valid forms: {msg}");
        }
        std::env::remove_var("JOCL_LISTEN");
        assert_eq!(env_listen(), None);

        // The message-arena knob (PR-7): same discipline.
        let check_store = |value: &str, expect: MessageStore| {
            std::env::set_var("JOCL_MSG_STORE", value);
            assert_eq!(env_message_store(), expect, "JOCL_MSG_STORE={value:?}");
        };
        check_store("exact", MessageStore::Exact);
        check_store(" Quantized\t", MessageStore::Quantized);
        check_store("QUANT", MessageStore::Quantized);
        check_store("", MessageStore::Exact);
        std::env::set_var("JOCL_MSG_STORE", "f32");
        let err = std::panic::catch_unwind(env_message_store).unwrap_err();
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("'exact' or 'quantized'"), "panic lists valid values: {msg}");
        std::env::remove_var("JOCL_MSG_STORE");
        assert_eq!(env_message_store(), MessageStore::Exact);

        // The entity-linking knobs (PR-8): same discipline.
        let check_link = |value: &str, expect: f64| {
            std::env::set_var("JOCL_LINK_THRESHOLD", value);
            assert_eq!(env_link_threshold(), expect, "JOCL_LINK_THRESHOLD={value:?}");
        };
        check_link("0.25", 0.25);
        check_link(" 0.9\t", 0.9);
        check_link("0", 0.0);
        check_link("1", 1.0);
        check_link("", 0.0);
        check_link("OFF", 0.0);
        check_link(" off ", 0.0);
        for bad in ["1.5", "-0.1", "NaN", "inf", "maybe"] {
            std::env::set_var("JOCL_LINK_THRESHOLD", bad);
            let err = std::panic::catch_unwind(env_link_threshold).unwrap_err();
            let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
            assert!(msg.contains("[0, 1]"), "{bad:?} must list the valid form: {msg}");
        }
        std::env::remove_var("JOCL_LINK_THRESHOLD");
        assert_eq!(env_link_threshold(), 0.0);

        std::env::set_var("JOCL_SIDE_INFO", "  /tmp/side info.tsv ");
        assert_eq!(
            env_side_info(),
            Some(std::path::PathBuf::from("/tmp/side info.tsv")),
            "inner whitespace survives, outer is trimmed"
        );
        std::env::set_var("JOCL_SIDE_INFO", "   ");
        assert_eq!(env_side_info(), None, "blank means unset");
        std::env::set_var("JOCL_SIDE_INFO", " Off ");
        assert_eq!(env_side_info(), None, "'off' disables side information");
        std::env::remove_var("JOCL_SIDE_INFO");
        assert_eq!(env_side_info(), None);

        // The consolidated stragglers (PR-9, flushed out by jocl-lint R1):
        // same discipline as every knob above.
        std::env::set_var("JOCL_TRAIN_EPOCHS", " 2\t");
        assert_eq!(env_train_epochs(), 2);
        std::env::set_var("JOCL_TRAIN_EPOCHS", "0");
        assert_eq!(env_train_epochs(), 0, "zero epochs skips refinement");
        std::env::set_var("JOCL_TRAIN_EPOCHS", "four");
        let err = std::panic::catch_unwind(env_train_epochs).unwrap_err();
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("non-negative integer"), "panic lists the valid form: {msg}");
        std::env::remove_var("JOCL_TRAIN_EPOCHS");
        assert_eq!(env_train_epochs(), 4);

        std::env::set_var("JOCL_CESI_T", " 0.5 ");
        assert_eq!(env_cesi_threshold(), 0.5);
        std::env::set_var("JOCL_CESI_T", "1.5");
        let err = std::panic::catch_unwind(env_cesi_threshold).unwrap_err();
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("[0, 1]"), "panic lists the valid form: {msg}");
        std::env::remove_var("JOCL_CESI_T");
        assert_eq!(env_cesi_threshold(), 0.84);
        std::env::set_var("JOCL_SIST_T", "0.6");
        assert_eq!(env_sist_threshold(), 0.6);
        std::env::remove_var("JOCL_SIST_T");
        assert_eq!(env_sist_threshold(), 0.45);

        std::env::set_var("JOCL_BENCH_BASELINE", "  /tmp/base line.json ");
        assert_eq!(
            env_bench_baseline(),
            Some(std::path::PathBuf::from("/tmp/base line.json")),
            "inner whitespace survives, outer is trimmed"
        );
        std::env::set_var("JOCL_BENCH_BASELINE", "   ");
        assert_eq!(env_bench_baseline(), None, "blank means unset");
        std::env::remove_var("JOCL_BENCH_BASELINE");
        assert_eq!(env_bench_baseline(), None);

        std::env::set_var("JOCL_BENCH_TOLERANCE", " 0.5\t");
        assert_eq!(env_bench_tolerance(), 0.5);
        std::env::set_var("JOCL_BENCH_TOLERANCE", "-0.1");
        let err = std::panic::catch_unwind(env_bench_tolerance).unwrap_err();
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("non-negative"), "panic lists the valid form: {msg}");
        std::env::remove_var("JOCL_BENCH_TOLERANCE");
        assert_eq!(env_bench_tolerance(), 0.30);

        // The observability switches (PR-10): same discipline.
        let check_metrics = |value: &str, expect: bool| {
            std::env::set_var("JOCL_METRICS", value);
            assert_eq!(env_metrics(), expect, "JOCL_METRICS={value:?}");
        };
        check_metrics("on", true);
        check_metrics(" OFF\t", false);
        check_metrics("1", true);
        check_metrics("0", false);
        check_metrics("True", true);
        check_metrics("false", false);
        check_metrics("", true);
        std::env::set_var("JOCL_METRICS", "maybe");
        let err = std::panic::catch_unwind(env_metrics).unwrap_err();
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("'on' or 'off'"), "panic lists valid values: {msg}");
        std::env::remove_var("JOCL_METRICS");
        assert!(env_metrics(), "metrics default on");

        std::env::set_var("JOCL_TRACE", " On ");
        assert!(env_trace());
        std::env::set_var("JOCL_TRACE", "off");
        assert!(!env_trace());
        std::env::set_var("JOCL_TRACE", "yes");
        assert!(std::panic::catch_unwind(env_trace).is_err(), "'yes' is not a valid switch");
        std::env::remove_var("JOCL_TRACE");
        assert!(!env_trace(), "tracing default off");

        std::env::set_var("JOCL_MEM_CEILING_MB", " 1024 ");
        assert_eq!(env_mem_ceiling_mb(8192), 1024);
        std::env::set_var("JOCL_MEM_CEILING_MB", "0");
        let err = std::panic::catch_unwind(|| env_mem_ceiling_mb(8192)).unwrap_err();
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("positive integer"), "panic lists the valid form: {msg}");
        std::env::remove_var("JOCL_MEM_CEILING_MB");
        assert_eq!(env_mem_ceiling_mb(8192), 8192, "per-gate preset is the default");
        assert_eq!(env_mem_ceiling_mb(32_768), 32_768);
    }

    /// `JOCL_SCALE`/`JOCL_SEED` follow the same contract as every other
    /// knob: trimmed, blank means unset, garbage is a typed panic naming
    /// the variable and the value — `JOCL_SCALE=1,0` used to run 0.02.
    #[test]
    fn scale_and_seed_reject_garbage() {
        let panic_msg = |f: fn() -> String| {
            let err = std::panic::catch_unwind(f).unwrap_err();
            err.downcast_ref::<String>().cloned().unwrap_or_default()
        };
        std::env::set_var("JOCL_SCALE", " 0.5\t");
        assert_eq!(env_scale(), 0.5);
        std::env::set_var("JOCL_SCALE", "   ");
        assert_eq!(env_scale(), 0.02, "blank means unset");
        for bad in ["1,0", "0", "-0.1", "NaN", "inf", "tiny"] {
            std::env::set_var("JOCL_SCALE", bad);
            let msg = panic_msg(|| env_scale().to_string());
            assert!(
                msg.contains("JOCL_SCALE") && msg.contains(&format!("{bad:?}")),
                "{bad:?} must name the variable and the value: {msg}"
            );
        }
        std::env::remove_var("JOCL_SCALE");
        assert_eq!(env_scale(), 0.02);

        std::env::set_var("JOCL_SEED", " 7 ");
        assert_eq!(env_seed(), 7);
        std::env::set_var("JOCL_SEED", "");
        assert_eq!(env_seed(), 42, "blank means unset");
        for bad in ["-1", "4.2", "seed"] {
            std::env::set_var("JOCL_SEED", bad);
            let msg = panic_msg(|| env_seed().to_string());
            assert!(
                msg.contains("JOCL_SEED") && msg.contains(&format!("{bad:?}")),
                "{bad:?} must name the variable and the value: {msg}"
            );
        }
        std::env::remove_var("JOCL_SEED");
        assert_eq!(env_seed(), 42);
    }
}
