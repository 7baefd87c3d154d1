//! Test-only fault injection for worker processes, consolidated in one
//! documented module so the knobs cannot silently drift apart across the
//! worker, the coordinator tests and the CI fault matrix.
//!
//! A worker consults [`injected`] exactly once, at startup. Faults are
//! **opt-in via the environment** and cost nothing when unset — production
//! workers never read past the first missing variable.
//!
//! # Environment knobs
//!
//! | variable | meaning |
//! |---|---|
//! | [`FAULT_ENV`] (`SPARQLOG_SHARD_FAULT`) | the [`FaultMode`] to inject (see the table below); unknown values are ignored |
//! | [`FAULT_SHARD_ENV`] (`SPARQLOG_SHARD_FAULT_SHARD`) | scope the fault to one shard index; other shards run clean |
//! | [`FAULT_FLAG_ENV`] (`SPARQLOG_SHARD_FAULT_FLAG`) | path of a flag file; the fault fires **at most once** across all processes (first exclusive create wins), so a supervisor that restarts the worker sees it recover |
//! | [`FAULT_DELAY_MS_ENV`] (`SPARQLOG_SHARD_FAULT_DELAY_MS`) | duration of the `delay` fault in milliseconds (default 1000) |
//! | [`FAULT_STALL_MS_ENV`] (`SPARQLOG_SHARD_FAULT_STALL_MS`) | duration of the `stall` fault in milliseconds (default 600000) |
//!
//! # Fault modes
//!
//! | mode | behaviour |
//! |---|---|
//! | `die` | exit 3 before writing any output |
//! | `wrong-version` | write a bogus codec version byte and exit cleanly |
//! | `truncate` | declare a frame and deliver only part of its payload |
//! | `abort-mid-stream` | abort the process after the first complete frame — a worker killed mid-write |
//! | `stderr-flood` | write several pipe buffers of stderr before any stdout, then complete normally |
//! | `stall` | write the stream header, then produce nothing (no frames, no heartbeats) for [`stall_duration`] — a wedged worker, detectable only by a heartbeat timeout |
//! | `delay` | sleep [`delay_duration`] after the stream header (heartbeats keep flowing), then complete normally — a slow worker a supervisor must *not* kill |

use std::time::Duration;

/// `SPARQLOG_SHARD_FAULT` — the fault mode to inject.
pub const FAULT_ENV: &str = "SPARQLOG_SHARD_FAULT";

/// `SPARQLOG_SHARD_FAULT_SHARD` — restrict the fault to one shard index.
pub const FAULT_SHARD_ENV: &str = "SPARQLOG_SHARD_FAULT_SHARD";

/// `SPARQLOG_SHARD_FAULT_FLAG` — flag-file path making the fault fire at
/// most once across all worker processes (exclusive create claims it).
pub const FAULT_FLAG_ENV: &str = "SPARQLOG_SHARD_FAULT_FLAG";

/// `SPARQLOG_SHARD_FAULT_DELAY_MS` — duration of the `delay` fault.
pub const FAULT_DELAY_MS_ENV: &str = "SPARQLOG_SHARD_FAULT_DELAY_MS";

/// `SPARQLOG_SHARD_FAULT_STALL_MS` — duration of the `stall` fault.
pub const FAULT_STALL_MS_ENV: &str = "SPARQLOG_SHARD_FAULT_STALL_MS";

/// The injectable worker faults (see the [module docs](self)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultMode {
    /// Exit 3 before writing any output.
    Die,
    /// Write a bogus codec version byte, then exit cleanly.
    WrongVersion,
    /// Declare a frame and deliver only part of its payload.
    Truncate,
    /// Abort after the first complete frame — killed mid-write.
    AbortMidStream,
    /// Flood stderr before any stdout, then complete normally.
    StderrFlood,
    /// Produce nothing after the header — a wedged worker.
    Stall,
    /// Sleep after the header (heartbeating), then complete normally.
    Delay,
}

impl FaultMode {
    /// Every mode, in wire-name order.
    pub const ALL: [FaultMode; 7] = [
        FaultMode::Die,
        FaultMode::WrongVersion,
        FaultMode::Truncate,
        FaultMode::AbortMidStream,
        FaultMode::StderrFlood,
        FaultMode::Stall,
        FaultMode::Delay,
    ];

    /// The mode's environment-variable spelling.
    pub fn name(self) -> &'static str {
        match self {
            FaultMode::Die => "die",
            FaultMode::WrongVersion => "wrong-version",
            FaultMode::Truncate => "truncate",
            FaultMode::AbortMidStream => "abort-mid-stream",
            FaultMode::StderrFlood => "stderr-flood",
            FaultMode::Stall => "stall",
            FaultMode::Delay => "delay",
        }
    }

    /// Parses the environment spelling; unknown values are `None` (ignored,
    /// so a typo degrades to a clean run rather than a surprise fault).
    pub fn parse(value: &str) -> Option<FaultMode> {
        FaultMode::ALL
            .into_iter()
            .find(|mode| mode.name() == value.trim())
    }
}

/// The fault requested for this shard via the environment, if any. Applies
/// the shard scope ([`FAULT_SHARD_ENV`]) first and claims the once-flag
/// ([`FAULT_FLAG_ENV`]) last, so a scoped-away shard never consumes the
/// flag meant for another.
pub fn injected(shard: usize) -> Option<FaultMode> {
    let mode = FaultMode::parse(&std::env::var(FAULT_ENV).ok()?)?;
    if let Ok(scoped) = std::env::var(FAULT_SHARD_ENV) {
        if scoped.trim().parse::<usize>() != Ok(shard) {
            return None;
        }
    }
    claim_once(FAULT_FLAG_ENV).then_some(mode)
}

/// Claims the once-flag whose path the environment variable `flag_env`
/// names: `true` when the variable is unset or this call created the flag
/// file, `false` when the file already exists or cannot be created. The
/// one claim behind this module's [`FAULT_FLAG_ENV`] and the store's
/// `SPARQLOG_PERSIST_FAULT_FLAG`.
pub fn claim_once(flag_env: &str) -> bool {
    let Ok(flag) = std::env::var(flag_env) else {
        return true;
    };
    // First exclusive create wins; every later process runs clean. A flag
    // path that cannot be created at all (missing directory) also disables
    // the fault — erring towards clean runs.
    std::fs::OpenOptions::new()
        .write(true)
        .create_new(true)
        .open(flag.trim())
        .is_ok()
}

fn env_millis(var: &str, default_ms: u64) -> Duration {
    Duration::from_millis(
        std::env::var(var)
            .ok()
            .and_then(|v| v.trim().parse::<u64>().ok())
            .unwrap_or(default_ms),
    )
}

/// How long the `delay` fault sleeps (default 1 s, [`FAULT_DELAY_MS_ENV`]).
pub fn delay_duration() -> Duration {
    env_millis(FAULT_DELAY_MS_ENV, 1_000)
}

/// How long the `stall` fault wedges (default 600 s, [`FAULT_STALL_MS_ENV`]).
pub fn stall_duration() -> Duration {
    env_millis(FAULT_STALL_MS_ENV, 600_000)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_mode_round_trips_through_its_name() {
        for mode in FaultMode::ALL {
            assert_eq!(FaultMode::parse(mode.name()), Some(mode));
        }
        assert_eq!(FaultMode::parse("frobnicate"), None);
        assert_eq!(FaultMode::parse(" die "), Some(FaultMode::Die));
    }

    #[test]
    fn flag_file_claims_are_exclusive() {
        let dir = std::env::temp_dir().join(format!("sparqlog-fault-flag-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let flag = dir.join("claims.flag");
        // Simulate two workers racing for the flag: only the first create
        // succeeds (the same create_new call `claim_once` performs).
        let claim = |path: &std::path::Path| {
            std::fs::OpenOptions::new()
                .write(true)
                .create_new(true)
                .open(path)
                .is_ok()
        };
        assert!(claim(&flag));
        assert!(!claim(&flag));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
