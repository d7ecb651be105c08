//! Fixture: the lock unwrap below is allowlisted, but the allowlist
//! also carries a rotted entry and a miscounted one — both must fail
//! the run as LINT findings.

pub fn counter(m: &std::sync::Mutex<u64>) -> u64 {
    *m.lock().unwrap()
}
