//! Property tests for the atomic metrics: whatever the shape of a
//! concurrent workload, reads equal the sequential total.

use jocl_obs::metrics::Registry;
use proptest::prelude::*;
use std::sync::Arc;
use std::thread;

proptest! {
    /// Concurrent counter: split an arbitrary workload across threads,
    /// and the counter equals the sum a single sequential loop would
    /// produce.
    #[test]
    fn concurrent_counter_merge_equals_sequential(
        per_thread in proptest::collection::vec(
            proptest::collection::vec(0u64..1000, 0..64),
            1..8,
        ),
    ) {
        let reg = Registry::new();
        let counter = reg.counter("prop_total", &[]);
        let expected: u64 = per_thread.iter().flatten().sum();

        let handles: Vec<_> = per_thread
            .into_iter()
            .map(|work| {
                let counter = Arc::clone(&counter);
                thread::spawn(move || {
                    for n in work {
                        counter.add(n);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }

        prop_assert_eq!(counter.get(), expected);
    }

    /// Same invariant for histograms: concurrent recording reaches
    /// the sequential count/sum, and bucket totals equal the count.
    #[test]
    fn concurrent_histogram_merge_equals_sequential(
        per_thread in proptest::collection::vec(
            proptest::collection::vec(0u64..1_000_000, 0..32),
            1..6,
        ),
    ) {
        let reg = Registry::new();
        let hist = reg.histogram("prop_ns", &[]);
        let flat: Vec<u64> = per_thread.iter().flatten().copied().collect();
        let expected_count = flat.len() as u64;
        let expected_sum: u64 = flat.iter().sum();

        let handles: Vec<_> = per_thread
            .into_iter()
            .map(|work| {
                let hist = Arc::clone(&hist);
                thread::spawn(move || {
                    for v in work {
                        hist.record(v);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }

        let snap = hist.snapshot();
        prop_assert_eq!(snap.count, expected_count);
        prop_assert_eq!(snap.sum, expected_sum);
        prop_assert_eq!(snap.buckets.iter().sum::<u64>(), expected_count);
    }
}
