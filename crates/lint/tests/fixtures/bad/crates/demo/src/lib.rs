//! Fixture: one true positive per code rule (R1, R2) — every line
//! below must be flagged when `lint_root` points at this tree.

pub fn scale() -> f64 {
    std::env::var("JOCL_SCALE").ok().and_then(|v| v.parse().ok()).unwrap_or(0.02)
}

pub fn counter(m: &std::sync::Mutex<u64>) -> u64 {
    *m.lock().unwrap()
}
