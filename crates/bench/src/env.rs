//! The `JOCL_*` environment knobs, consolidated.
//!
//! Every bin, gate and bench reads its configuration through these
//! helpers, and every helper is one call of the private [`knob`] parser,
//! so all knobs share one discipline:
//!
//! * surrounding whitespace is trimmed and keywords are ASCII
//!   case-folded (`JOCL_MSG_STORE=Quantized`, `" off "` both work);
//! * empty / blank values mean "unset" (the default applies);
//! * `off` disables where a knob is disableable;
//! * each value has exactly one spelling, and anything else **panics
//!   naming the variable, the valid forms and the value** — a typo must
//!   never silently select a different configuration.
//!
//! | Knob | Meaning | Default |
//! |---|---|---|
//! | `JOCL_SCALE` | dataset scale | `0.02` |
//! | `JOCL_SEED` | generator seed | `42` |
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

use jocl_fg::MessageStore;
use jocl_serve::ListenAddr;
use std::path::PathBuf;

/// The one knob parser: reads `name`, trims it, and treats unset or
/// blank as `default`. Otherwise `parse` gets the trimmed value, and a
/// `None` from it panics with `"{name} must be {forms}, got {v:?}"`.
fn knob<T>(name: &str, default: T, forms: &str, parse: impl FnOnce(&str) -> Option<T>) -> T {
    let Ok(v) = std::env::var(name) else { return default };
    match v.trim() {
        "" => default,
        t => parse(t).unwrap_or_else(|| panic!("{name} must be {forms}, got {v:?}")),
    }
}

/// A finite number in `[0, 1]` (thresholds, densities, confidences).
fn unit_interval(t: &str) -> Option<f64> {
    t.parse().ok().filter(|x| (0.0..=1.0).contains(x))
}

/// `JOCL_SCALE`: the dataset scale, a finite positive number (default
/// 0.02; `1,0` must not silently run 0.02).
pub fn env_scale() -> f64 {
    knob("JOCL_SCALE", 0.02, "a positive number (e.g. 0.02)", |t| {
        t.parse().ok().filter(|s: &f64| s.is_finite() && *s > 0.0)
    })
}

/// `JOCL_SEED`: the generator seed (default 42).
pub fn env_seed() -> u64 {
    knob("JOCL_SEED", 42, "a non-negative integer", |t| t.parse().ok())
}

/// `JOCL_STREAM_BATCH`: how many arrival batches the streaming replay
/// (`stream` bin, `stream_scale` gate) splits the dataset into
/// (default 4).
pub fn env_stream_batches() -> usize {
    knob("JOCL_STREAM_BATCH", 4, "a positive integer (number of arrival batches)", |t| {
        t.parse().ok().filter(|&n| n >= 1)
    })
}

/// `JOCL_SNAPSHOT_DIR`: where the `serve` bin writes/reads warm session
/// snapshots (and, in listen mode, the replication feed log). Unset
/// means a process-scoped temp directory. The serve bin creates the
/// directory on first snapshot; an uncreatable path fails there with
/// the offending path in the error, never a silent fallback elsewhere.
pub fn env_snapshot_dir() -> Option<PathBuf> {
    knob("JOCL_SNAPSHOT_DIR", None, "a directory path", |t| Some(Some(PathBuf::from(t))))
}

/// `JOCL_COMPACT_THRESHOLD`: the tombstone (dead-factor) density above
/// which the serving session compacts (cold rebuild from the
/// survivors). Default 0.5; `off` disables automatic compaction.
pub fn env_compact_threshold() -> f64 {
    knob("JOCL_COMPACT_THRESHOLD", 0.5, "a density in [0, 1] or 'off'", |t| {
        if t.eq_ignore_ascii_case("off") {
            Some(f64::INFINITY)
        } else {
            unit_interval(t)
        }
    })
}

/// `JOCL_LISTEN`: where the `serve` bin listens for the line protocol,
/// `tcp:HOST:PORT` or `unix:PATH` (port 0 picks a free port, reported on
/// startup). Unset or `off` means the interactive stdin loop.
pub fn env_listen() -> Option<ListenAddr> {
    knob("JOCL_LISTEN", None, "'tcp:HOST:PORT', 'unix:PATH' or 'off'", |t| {
        if t.eq_ignore_ascii_case("off") {
            Some(None)
        } else {
            ListenAddr::parse(t).ok().map(Some)
        }
    })
}

/// `JOCL_MSG_STORE`: which committed-message representation a
/// long-lived session keeps between deltas. `exact` (the default)
/// commits the engine's f64 arenas bit-for-bit; `quantized` halves
/// their resident bytes (per-block f64 anchors + f32 residuals).
pub fn env_message_store() -> MessageStore {
    knob("JOCL_MSG_STORE", MessageStore::Exact, "'exact' or 'quantized'", |t| {
        if t.eq_ignore_ascii_case("exact") {
            Some(MessageStore::Exact)
        } else if t.eq_ignore_ascii_case("quantized") {
            Some(MessageStore::Quantized)
        } else {
            None
        }
    })
}

/// `JOCL_LINK_THRESHOLD`: the default minimum calibrated confidence a
/// `link` candidate must reach to be reported
/// (`ServeConfig::link_threshold`). Default 0.0; `off` also reports
/// everything.
pub fn env_link_threshold() -> f64 {
    knob("JOCL_LINK_THRESHOLD", 0.0, "a confidence in [0, 1] or 'off'", |t| {
        if t.eq_ignore_ascii_case("off") {
            Some(0.0)
        } else {
            unit_interval(t)
        }
    })
}

/// `JOCL_SIDE_INFO`: path of a side-information TSV
/// (`jocl_kb::tsv::read_side_kb` format — alias tables / external-KB
/// link imports) the `serve` bin threads into inference and the `link`
/// command. Unset or `off` means no side information. The path is read
/// at startup; a missing or malformed file fails there with the
/// offending path and line in the error.
pub fn env_side_info() -> Option<PathBuf> {
    knob("JOCL_SIDE_INFO", None, "a TSV path or 'off'", |t| {
        Some((!t.eq_ignore_ascii_case("off")).then(|| PathBuf::from(t)))
    })
}

/// `JOCL_TRAIN_EPOCHS`: how many joint train/inference epochs the
/// pipeline runs (default 4; 0 skips iterative refinement, useful for
/// ablations).
pub fn env_train_epochs() -> usize {
    knob("JOCL_TRAIN_EPOCHS", 4, "a non-negative integer (0 skips refinement)", |t| t.parse().ok())
}

/// `JOCL_CESI_T`: the CESI-baseline hierarchical-clustering cut
/// threshold used by the `table1` bin (default 0.84, the paper's
/// reported operating point).
pub fn env_cesi_threshold() -> f64 {
    knob("JOCL_CESI_T", 0.84, "a threshold in [0, 1]", unit_interval)
}

/// `JOCL_SIST_T`: the SIST-baseline clustering threshold used by the
/// `table1` bin (default 0.45).
pub fn env_sist_threshold() -> f64 {
    knob("JOCL_SIST_T", 0.45, "a threshold in [0, 1]", unit_interval)
}

/// `JOCL_BENCH_BASELINE`: where the bench-regression gate reads (and
/// `--update` writes) its baseline JSON. Unset means the checked-in
/// `BENCH_BASELINE.json` at the repo root.
pub fn env_bench_baseline() -> Option<PathBuf> {
    knob("JOCL_BENCH_BASELINE", None, "a file path", |t| Some(Some(PathBuf::from(t))))
}

/// `JOCL_BENCH_TOLERANCE`: the relative slack the bench-regression gate
/// allows around each calibrated baseline metric (default 0.30, ±30%).
pub fn env_bench_tolerance() -> f64 {
    knob("JOCL_BENCH_TOLERANCE", 0.30, "a non-negative relative slack (e.g. 0.30 for ±30%)", |t| {
        t.parse().ok().filter(|x: &f64| x.is_finite() && *x >= 0.0)
    })
}

/// `JOCL_MEM_CEILING_MB`: the resident-memory ceiling (MiB) a memory
/// gate asserts against. Each gate passes its own `default` preset (the
/// paper-scale gates budget differently from the stress preset).
pub fn env_mem_ceiling_mb(default: u64) -> u64 {
    knob("JOCL_MEM_CEILING_MB", default, "a positive integer (ceiling in MiB)", |t| {
        t.parse().ok().filter(|&n| n >= 1)
    })
}

/// `on`/`off` switch values.
fn on_off(t: &str) -> Option<bool> {
    if t.eq_ignore_ascii_case("on") {
        Some(true)
    } else if t.eq_ignore_ascii_case("off") {
        Some(false)
    } else {
        None
    }
}

/// `JOCL_METRICS`: whether the `jocl_obs` metric registry records
/// events (counters / histograms on the hot paths). Default on; `off`
/// makes every recording site a branch-and-return, for overhead A/B
/// runs — the `obs_scale` gate certifies inference is bitwise identical
/// either way.
pub fn env_metrics() -> bool {
    knob("JOCL_METRICS", true, "'on' or 'off'", on_off)
}

/// `JOCL_TRACE`: whether `jocl_obs` span tracing records into its
/// bounded ring (and the bins dump the span TSV to stderr on exit).
/// Default off.
pub fn env_trace() -> bool {
    knob("JOCL_TRACE", false, "'on' or 'off'", on_off)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Satellite regression: the env knobs must accept mixed case and
    /// stray whitespace, and
    /// still reject garbage with the typed message listing valid values.
    /// Each value has exactly one spelling: the old aliases (`sync`,
    /// `quant`, `1`/`true`/`0`/`false`) are rejected like any typo.
    /// One sequential test so the process-global env is never torn.
    #[test]
    fn env_knobs_trim_and_ignore_case() {
        let panic_msg = |f: &dyn Fn()| {
            let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).unwrap_err();
            err.downcast_ref::<String>().cloned().unwrap_or_default()
        };

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
        check_store("", MessageStore::Exact);
        for bad in ["f32", "quant", "QUANT"] {
            std::env::set_var("JOCL_MSG_STORE", bad);
            let msg = panic_msg(&|| {
                env_message_store();
            });
            assert!(
                msg.contains("JOCL_MSG_STORE must be 'exact' or 'quantized'"),
                "{bad:?} must list the valid values: {msg}"
            );
        }
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
        check_metrics("", true);
        for bad in ["maybe", "1", "0", "True", "false"] {
            std::env::set_var("JOCL_METRICS", bad);
            let msg = panic_msg(&|| {
                env_metrics();
            });
            assert!(
                msg.contains("JOCL_METRICS must be 'on' or 'off'"),
                "{bad:?} must list the valid values: {msg}"
            );
        }
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
