//! Fixture: conforming counterparts — a non-JOCL env read, a
//! poison-recovering lock and test-only unwraps.

pub fn scale() -> f64 {
    std::env::var("DEMO_SCALE").ok().and_then(|v| v.parse().ok()).unwrap_or(0.02)
}

pub fn counter(m: &std::sync::Mutex<u64>) -> u64 {
    *m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    #[test]
    fn test_code_may_unwrap_locks() {
        let m = std::sync::Mutex::new(1u64);
        assert_eq!(*m.lock().unwrap(), 1);
    }
}
