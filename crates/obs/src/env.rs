//! Every `SPARQLOG_*` environment variable the workspace reads: their names,
//! the tables [`PRODUCTION`] and [`TEST_ONLY`] (which the README's
//! "Environment variables" section lists row for row), and one reader per
//! parse rule. No other module calls `std::env::var`: each owner reads its
//! variable through a reader here at call time, and parses the text itself
//! when the value's type lives in a higher crate (`RecoveryPolicy`, the
//! fault modes).
//!
//! Nothing is cached, so a test that changes a variable in-process sees
//! the next read change — except `SPARQLOG_METRICS`, which
//! [`enabled`](crate::enabled) resolves once and then latches.

use std::time::Duration;

/// Pins the engine's worker threads.
pub const WORKERS: &str = "SPARQLOG_WORKERS";
/// Pins the shard coordinator's worker processes.
pub const SHARDS: &str = "SPARQLOG_SHARDS";
/// Path of the `sparqlog-shard-worker` binary.
pub const SHARD_WORKER: &str = "SPARQLOG_SHARD_WORKER";
/// The recovery policy `RecoveryPolicy::Auto` resolves to.
pub const RECOVERY: &str = "SPARQLOG_RECOVERY";
/// Turns metrics recording off (`0`, `off`, `false`).
pub const METRICS: &str = "SPARQLOG_METRICS";
/// A needle: an entry containing it panics inside the per-entry boundary.
pub const PANIC_DRILL: &str = "SPARQLOG_PANIC_DRILL";
/// The worker fault mode to inject.
pub const SHARD_FAULT: &str = "SPARQLOG_SHARD_FAULT";
/// Restricts the worker fault to one shard index.
pub const SHARD_FAULT_SHARD: &str = "SPARQLOG_SHARD_FAULT_SHARD";
/// Flag-file path making the worker fault fire at most once.
pub const SHARD_FAULT_FLAG: &str = "SPARQLOG_SHARD_FAULT_FLAG";
/// Milliseconds the `delay` worker fault sleeps.
pub const SHARD_FAULT_DELAY_MS: &str = "SPARQLOG_SHARD_FAULT_DELAY_MS";
/// The store's commit-path crash to inject.
pub const PERSIST_FAULT: &str = "SPARQLOG_PERSIST_FAULT";
/// Flag-file path making the store fault fire at most once.
pub const PERSIST_FAULT_FLAG: &str = "SPARQLOG_PERSIST_FAULT_FLAG";

/// The production variables, in the README's order: they tune or locate
/// things and never change a report.
pub const PRODUCTION: [&str; 5] = [WORKERS, SHARDS, SHARD_WORKER, RECOVERY, METRICS];

/// The test-only variables, in the README's order: they inject faults and
/// are unset in normal operation.
pub const TEST_ONLY: [&str; 7] = [
    PANIC_DRILL,
    SHARD_FAULT,
    SHARD_FAULT_SHARD,
    SHARD_FAULT_FLAG,
    SHARD_FAULT_DELAY_MS,
    PERSIST_FAULT,
    PERSIST_FAULT_FLAG,
];

/// The variable's value as set; `None` when it is unset or not UTF-8.
pub fn text(name: &str) -> Option<String> {
    std::env::var(name).ok()
}

/// A positive integer; `None` when the variable is unset, empty, `0` or
/// not a number.
pub fn positive(name: &str) -> Option<usize> {
    text(name)
        .and_then(|value| value.trim().parse::<usize>().ok())
        .filter(|&n| n > 0)
}

/// A duration in milliseconds; `default_ms` when the variable is unset or
/// not a number.
pub fn millis(name: &str, default_ms: u64) -> Duration {
    Duration::from_millis(
        text(name)
            .and_then(|value| value.trim().parse::<u64>().ok())
            .unwrap_or(default_ms),
    )
}

/// An on switch that only `0`, `off` or `false` turn off; unset is on.
pub fn switch(name: &str) -> bool {
    !matches!(text(name).as_deref(), Some("0" | "off" | "false"))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The README's "Environment variables" table lists exactly these
    /// variables: the same names in the same order, each in its scope.
    #[test]
    fn the_readme_table_matches_the_variable_tables() {
        let readme = include_str!("../../../README.md");
        let section = readme.split("\n## Environment variables\n").nth(1);
        let rows: Vec<(&str, &str)> = section
            .expect("README has an Environment variables section")
            .lines()
            .take_while(|line| !line.starts_with("## "))
            .filter_map(|line| {
                let name = line.strip_prefix("| `")?.split('`').next()?;
                Some((name, line.trim_end_matches(" |").rsplit("| ").next()?))
            })
            .collect();
        let production = PRODUCTION.map(|name| (name, "production"));
        let test_only = TEST_ONLY.map(|name| (name, "test-only"));
        assert_eq!(rows, [&production[..], &test_only[..]].concat());
    }
}
