//! The `SPARQLOG_WORKERS` environment override honored by the engine's
//! pools — the hook the CI determinism matrix pins worker counts
//! with. Kept in its own integration-test binary (and a single `#[test]`)
//! because environment mutation is process-global.

mod common;

use common::memory_readers;
use sparqlog::core::analysis::Population;
use sparqlog::core::baseline::analyze_reference;
use sparqlog::core::corpus::{analyze_streams, default_workers, workers_override, RawLog};

#[test]
fn workers_env_override_pins_the_pools_without_changing_reports() {
    // A positive integer pins the worker count.
    std::env::set_var("SPARQLOG_WORKERS", "3");
    assert_eq!(workers_override(), Some(3));
    assert_eq!(default_workers(), 3);

    // Garbage and zero are no override: the available parallelism is used.
    std::env::set_var("SPARQLOG_WORKERS", "not-a-number");
    assert_eq!(workers_override(), None);
    assert!(default_workers() >= 1);
    std::env::set_var("SPARQLOG_WORKERS", "0");
    assert_eq!(workers_override(), None);
    assert!(default_workers() >= 1);

    // Reports are byte-identical whatever the override says.
    let logs: Vec<RawLog> = vec![RawLog::new(
        "env",
        (0..300)
            .map(|i| format!("SELECT ?x WHERE {{ ?x <http://p{}> ?y }}", i % 40))
            .collect(),
    )];
    let reference = analyze_reference(&logs, Population::Unique);
    for workers in ["1", "2", "8"] {
        std::env::set_var("SPARQLOG_WORKERS", workers);
        assert_eq!(default_workers(), workers.parse::<usize>().unwrap());
        let run =
            analyze_streams(memory_readers(&logs), Population::Unique).expect("in-memory streams");
        assert_eq!(
            run.summaries[0].counts, reference.datasets[0].counts,
            "SPARQLOG_WORKERS={workers}"
        );
        assert_eq!(
            format!("{reference:?}"),
            format!("{:?}", run.corpus),
            "SPARQLOG_WORKERS={workers}"
        );
    }
    std::env::remove_var("SPARQLOG_WORKERS");
    assert!(default_workers() >= 1);
}
