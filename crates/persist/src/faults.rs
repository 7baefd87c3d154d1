//! Test-only crash injection for the snapshot store, mirroring the worker
//! fault knobs in `sparqlog_shard::faults`: opt-in via the environment,
//! free when unset, and fire-at-most-once via an exclusive-create flag file
//! (the same claim, `sparqlog_shard::faults::claim_once`) so a restarted
//! daemon sees the store recover.
//!
//! The store consults [`injected`] once per [`commit`], at the top of the
//! commit path, and then dies at the requested point *of that commit*. The
//! modes cover the four interesting instants of the commit protocol:
//!
//! | mode | dies | the restart must |
//! |---|---|---|
//! | `die-before-commit` | after the data records, before the commit record | drop the uncommitted records ([`Uncommitted`]) |
//! | `die-mid-frame` | half-way through the commit record's bytes | drop the torn tail ([`TornRecord`]) |
//! | `die-after-commit-pre-fsync` | after the commit record, before `fsync` | keep the commit (page cache survives a process death — only power loss would not) |
//! | `bit-flip` | after a clean commit + flip of one committed bit | detect the corruption by CRC and truncate to the last intact commit ([`ChecksumMismatch`]) |
//!
//! [`commit`]: crate::store::SnapshotStore::commit
//! [`Uncommitted`]: crate::store::RecoveryReason::Uncommitted
//! [`TornRecord`]: crate::store::RecoveryReason::TornRecord
//! [`ChecksumMismatch`]: crate::store::RecoveryReason::ChecksumMismatch

/// `SPARQLOG_PERSIST_FAULT` — the fault mode to inject (see [`FaultMode`]).
pub const FAULT_ENV: &str = "SPARQLOG_PERSIST_FAULT";

/// `SPARQLOG_PERSIST_FAULT_FLAG` — flag-file path making the fault fire at
/// most once across all store-holding processes (exclusive create claims
/// it), so the drill's restarted daemon commits cleanly.
pub const FAULT_FLAG_ENV: &str = "SPARQLOG_PERSIST_FAULT_FLAG";

/// Exit status of a process killed by an injected persist fault — distinct
/// from the shard worker's fault exit (3) so drills can tell them apart.
pub const FAULT_EXIT: i32 = 9;

/// The injectable commit-path crash points (see the [module docs](self)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultMode {
    /// Die after appending data records, before the commit record.
    DieBeforeCommit,
    /// Die half-way through writing the commit record — a torn write.
    DieMidFrame,
    /// Die after the commit record is written but before `fsync`.
    DieAfterCommitPreFsync,
    /// Commit cleanly, flip one committed bit on disk, then die — at-rest
    /// corruption discovered by the next recovery scan.
    BitFlip,
}

impl FaultMode {
    /// Every mode, in wire-name order.
    pub const ALL: [FaultMode; 4] = [
        FaultMode::DieBeforeCommit,
        FaultMode::DieMidFrame,
        FaultMode::DieAfterCommitPreFsync,
        FaultMode::BitFlip,
    ];

    /// The mode's environment-variable spelling.
    pub fn name(self) -> &'static str {
        match self {
            FaultMode::DieBeforeCommit => "die-before-commit",
            FaultMode::DieMidFrame => "die-mid-frame",
            FaultMode::DieAfterCommitPreFsync => "die-after-commit-pre-fsync",
            FaultMode::BitFlip => "bit-flip",
        }
    }

    /// Parses the environment spelling; unknown values are `None` (a typo
    /// degrades to a clean run rather than a surprise crash).
    pub fn parse(value: &str) -> Option<FaultMode> {
        FaultMode::ALL
            .into_iter()
            .find(|mode| mode.name() == value.trim())
    }
}

/// The fault requested for this commit via the environment, if any. Claims
/// the once-flag ([`FAULT_FLAG_ENV`]) on success, so only the first commit
/// across all processes dies.
pub fn injected() -> Option<FaultMode> {
    let mode = FaultMode::parse(&std::env::var(FAULT_ENV).ok()?)?;
    sparqlog_shard::faults::claim_once(FAULT_FLAG_ENV).then_some(mode)
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
        assert_eq!(FaultMode::parse(" bit-flip "), Some(FaultMode::BitFlip));
    }
}
