//! Test-only fault injection, in one module for both places that crash on
//! purpose: a worker process ([`FaultMode`], consulted once at startup by
//! [`injected`]) and the snapshot store's commit path ([`StoreFault`],
//! consulted once per commit by [`store_injected`]). Faults are **opt-in
//! via the environment** (the `SPARQLOG_SHARD_FAULT*` and
//! `SPARQLOG_PERSIST_FAULT*` variables of [`sparqlog_obs::env`]) and cost
//! nothing when unset. A flag-file variable makes a fault fire **at most
//! once** across all processes (first exclusive create wins), so a
//! supervisor that restarts the worker, or a restarted daemon, sees it
//! recover; `SPARQLOG_SHARD_FAULT_SHARD` scopes a worker fault to one shard.
//!
//! # Worker faults
//!
//! | mode | behaviour |
//! |---|---|
//! | `die` | exit [`WORKER_FAULT_EXIT`] before writing any output |
//! | `wrong-version` | write a bogus codec version byte and exit cleanly |
//! | `truncate` | declare a frame and deliver only part of its payload |
//! | `abort-mid-stream` | abort the process after the first complete frame — a worker killed mid-write |
//! | `stderr-flood` | write several pipe buffers of stderr before any stdout, then complete normally |
//! | `stall` | write the stream header, then produce nothing (no frames, no heartbeats) for [`STALL`] — a wedged worker, detectable only by a heartbeat timeout |
//! | `delay` | sleep [`delay_duration`] after the stream header (heartbeats keep flowing), then complete normally — a slow worker a supervisor must *not* kill |
//!
//! # Store faults
//!
//! The store dies with [`STORE_FAULT_EXIT`] at the requested point of the
//! commit that claimed the fault:
//!
//! | mode | dies | the restart must |
//! |---|---|---|
//! | `die-before-commit` | after the data records, before the commit record | drop the uncommitted records |
//! | `die-mid-frame` | half-way through the commit record's bytes | drop the torn tail |
//! | `die-after-commit-pre-fsync` | after the commit record, before `fsync` | keep the commit (page cache survives a process death — only power loss would not) |
//! | `bit-flip` | after a clean commit + flip of one committed bit | detect the corruption by CRC and truncate to the last intact commit |

use sparqlog_obs::env;
use std::time::Duration;

/// Exit status of a worker killed by [`FaultMode::Die`].
pub const WORKER_FAULT_EXIT: i32 = 3;

/// Exit status of a process killed by a [`StoreFault`] — distinct from
/// [`WORKER_FAULT_EXIT`] so drills can tell them apart.
pub const STORE_FAULT_EXIT: i32 = 9;

/// How long the `stall` fault wedges: far past any heartbeat timeout.
pub const STALL: Duration = Duration::from_secs(600);

/// Declares a fault-mode enum from its variants' environment spellings,
/// with `ALL` in spelling order, `name` and `parse`.
macro_rules! fault_modes {
    ($(#[$doc:meta])* $mode:ident { $($(#[$variant_doc:meta])* $variant:ident = $name:literal,)+ }) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum $mode {
            $($(#[$variant_doc])* $variant,)+
        }

        impl $mode {
            /// Every mode, in spelling order.
            pub const ALL: [$mode; [$($name),+].len()] = [$($mode::$variant),+];

            /// The mode's environment-variable spelling.
            pub fn name(self) -> &'static str {
                match self {
                    $($mode::$variant => $name,)+
                }
            }

            /// Parses the environment spelling; unknown values are `None`
            /// (ignored, so a typo degrades to a clean run rather than a
            /// surprise fault).
            pub fn parse(value: &str) -> Option<$mode> {
                $mode::ALL.into_iter().find(|mode| mode.name() == value.trim())
            }
        }
    };
}

fault_modes! {
    /// The injectable worker faults (see the [module docs](self)).
    FaultMode {
        /// Exit [`WORKER_FAULT_EXIT`] before writing any output.
        Die = "die",
        /// Write a bogus codec version byte, then exit cleanly.
        WrongVersion = "wrong-version",
        /// Declare a frame and deliver only part of its payload.
        Truncate = "truncate",
        /// Abort after the first complete frame — killed mid-write.
        AbortMidStream = "abort-mid-stream",
        /// Flood stderr before any stdout, then complete normally.
        StderrFlood = "stderr-flood",
        /// Produce nothing after the header — a wedged worker.
        Stall = "stall",
        /// Sleep after the header (heartbeating), then complete normally.
        Delay = "delay",
    }
}

fault_modes! {
    /// The injectable commit-path crash points of the snapshot store (see
    /// the [module docs](self)).
    StoreFault {
        /// Die after appending data records, before the commit record.
        DieBeforeCommit = "die-before-commit",
        /// Die half-way through writing the commit record — a torn write.
        DieMidFrame = "die-mid-frame",
        /// Die after the commit record is written but before `fsync`.
        DieAfterCommitPreFsync = "die-after-commit-pre-fsync",
        /// Commit cleanly, flip one committed bit on disk, then die —
        /// at-rest corruption discovered by the next recovery scan.
        BitFlip = "bit-flip",
    }
}

/// The worker fault requested for this shard, if any. Applies the shard
/// scope first and claims the once-flag last, so a scoped-away shard never
/// consumes the flag meant for another.
pub fn injected(shard: usize) -> Option<FaultMode> {
    let mode = FaultMode::parse(&env::text(env::SHARD_FAULT)?)?;
    if let Some(scoped) = env::text(env::SHARD_FAULT_SHARD) {
        if scoped.trim().parse::<usize>() != Ok(shard) {
            return None;
        }
    }
    claim_once(env::text(env::SHARD_FAULT_FLAG)).then_some(mode)
}

/// The store fault requested for this commit, if any. Claims the once-flag,
/// so only the first commit across all processes dies.
pub fn store_injected() -> Option<StoreFault> {
    let mode = StoreFault::parse(&env::text(env::PERSIST_FAULT)?)?;
    claim_once(env::text(env::PERSIST_FAULT_FLAG)).then_some(mode)
}

/// Claims the once-flag at path `flag`: `true` when there is none or this
/// call created the flag file, `false` when the file already exists or
/// cannot be created.
fn claim_once(flag: Option<String>) -> bool {
    // First exclusive create wins; every later process runs clean. A flag
    // path that cannot be created at all (missing directory) also disables
    // the fault — erring towards clean runs.
    flag.is_none_or(|flag| {
        let mut options = std::fs::OpenOptions::new();
        options
            .write(true)
            .create_new(true)
            .open(flag.trim())
            .is_ok()
    })
}

/// How long the `delay` fault sleeps (default 1 s,
/// `SPARQLOG_SHARD_FAULT_DELAY_MS`).
pub fn delay_duration() -> Duration {
    env::millis(env::SHARD_FAULT_DELAY_MS, 1_000)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_mode_round_trips_through_its_name() {
        for mode in FaultMode::ALL {
            assert_eq!(FaultMode::parse(mode.name()), Some(mode));
        }
        for mode in StoreFault::ALL {
            assert_eq!(StoreFault::parse(mode.name()), Some(mode));
        }
        assert_eq!(FaultMode::parse("frobnicate"), None);
        assert_eq!(FaultMode::parse(" die "), Some(FaultMode::Die));
        assert_eq!(StoreFault::parse("die"), None);
        assert_eq!(StoreFault::parse(" bit-flip "), Some(StoreFault::BitFlip));
    }

    #[test]
    fn flag_file_claims_are_exclusive() {
        let dir = std::env::temp_dir().join(format!("sparqlog-fault-flag-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let flag = dir.join("claims.flag").display().to_string();
        // Two processes racing for the flag: only the first create wins.
        assert!(claim_once(Some(flag.clone())));
        assert!(!claim_once(Some(flag)));
        assert!(claim_once(None), "no flag: the fault fires every time");
        let missing = dir.join("missing").join("claims.flag");
        assert!(!claim_once(Some(missing.display().to_string())));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
