//! The identity pass of a store-backed submit: each log's canonical
//! identity ([`sparqlog_core::file_identity`]), the key its snapshot is
//! stored under.
//!
//! Hashing reads every byte of a log, and a resubmitted log is usually
//! unchanged, so the supervisor keeps an [`IdentityMemo`]: per submitted
//! `(path, population, label)`, the key last hashed and the file's stat
//! stamp `(dev, ino, size, mtime, ctime)` at that time. A log whose stamp
//! equals its entry's takes the memoized key without being read.
//!
//! # The racy rule
//!
//! A stamp is recorded only when the file's ctime is more than
//! `RACY_MARGIN` (2 s) older than the moment the pass began, the rule git
//! applies to its index ("racy git"). User space cannot set a ctime, and any
//! change to the file after the pass began lands at least one timestamp
//! tick after the recorded ctime, so it changes the stamp. That includes a
//! same-size rewrite whose mtime was put back (`touch -r`,
//! `File::set_modified`). A file changed within the margin, possibly in the
//! same tick as the stamp, is hashed again at every submit until it has
//! aged. The limits are git's: a write through `mmap` whose ctime lags until
//! writeback, a wall clock set back by more than the margin, and a network
//! filesystem whose server clock differs from this host's.
//!
//! The lookup stamps each log with `stat`. A log that misses is opened
//! once, and the stamp recorded for it comes from `fstat` on the descriptor
//! that is then hashed, so a rename between the two cannot pair one file's
//! stamp with another file's key. Stamps are Unix-only; elsewhere every log
//! is hashed at every submit.

use sparqlog_core::analysis::Population;
use sparqlog_core::identity_of_open_file;
use sparqlog_obs as obs;
use sparqlog_shard::LogSpec;
use std::collections::HashMap;
use std::fs::{self, File, Metadata};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, SystemTime, UNIX_EPOCH};

/// How much older than the start of a pass a file's ctime must be before
/// its stamp is trusted.
const RACY_MARGIN: Duration = Duration::from_secs(2);

/// The most entries the memo holds (a few hundred bytes each); a full memo
/// is cleared. A log that misses only pays the hash it would pay without
/// the memo, and a daemon that sees ever new labels stays bounded.
const MEMO_CAP: usize = 4096;

/// What `fstat` says about a file: equal stamps, both older than the
/// margin, mean unchanged bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Stamp {
    dev: u64,
    ino: u64,
    size: u64,
    mtime: (i64, i64),
    ctime: (i64, i64),
}

impl Stamp {
    #[cfg(unix)]
    fn of(metadata: &Metadata) -> Option<Stamp> {
        use std::os::unix::fs::MetadataExt;
        Some(Stamp {
            dev: metadata.dev(),
            ino: metadata.ino(),
            size: metadata.size(),
            mtime: (metadata.mtime(), metadata.mtime_nsec()),
            ctime: (metadata.ctime(), metadata.ctime_nsec()),
        })
    }

    #[cfg(not(unix))]
    fn of(_metadata: &Metadata) -> Option<Stamp> {
        None
    }

    /// The racy rule: whether the file's last change is more than
    /// [`RACY_MARGIN`] older than `began`. A ctime in the future, or before
    /// the epoch, is never trusted.
    fn trusted(&self, began: SystemTime) -> bool {
        let (Ok(secs), Ok(nanos)) = (u64::try_from(self.ctime.0), u32::try_from(self.ctime.1))
        else {
            return false;
        };
        let ctime = UNIX_EPOCH + Duration::new(secs, nanos);
        ctime + RACY_MARGIN < began
    }
}

/// A memo entry's key: the path as submitted, the population's byte code
/// and the label — the identity hashes the last two, the path names the
/// bytes.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct MemoKey {
    path: PathBuf,
    population: u8,
    label: String,
}

/// The supervisor's memo of log identities (see the [module docs](self)).
/// A restarted daemon starts with an empty one.
#[derive(Debug, Default)]
pub struct IdentityMemo {
    entries: Mutex<HashMap<MemoKey, (Stamp, u128)>>,
}

/// What one identity pass did, for its counters and for tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IdentityCounts {
    /// Logs whose key came from the memo, unread.
    pub hits: usize,
    /// Logs that missed the memo and were read to hash them.
    pub hashed: usize,
    /// Threads started to hash them (the caller's thread hashes too).
    pub spawned: usize,
}

impl IdentityMemo {
    /// Every log's canonical identity (`None` = unreadable right now), as
    /// `file_identity` would compute it. Each log is stamped on the
    /// caller's thread and taken from the memo when its stamp matches; the
    /// rest are hashed over up to `cores` threads, the caller's included,
    /// so a fully memoized pass starts none. `began` is when the pass
    /// started (`SystemTime::now()`, taken before any stamp); a hashed log
    /// is recorded only if its stamp is trusted at `began`.
    pub fn identify(
        &self,
        population: Population,
        logs: &[LogSpec],
        cores: usize,
        began: SystemTime,
    ) -> (Vec<Option<u128>>, IdentityCounts) {
        let _span = obs::global().histogram("serve_identity_us").span();
        // Stamped outside the lock: concurrent submits share only lookups.
        let stamped: Vec<(usize, MemoKey, Option<Stamp>)> = logs
            .iter()
            .enumerate()
            .filter_map(|(index, log)| {
                let metadata = fs::metadata(&log.path).ok()?;
                let key = MemoKey {
                    path: log.path.clone(),
                    population: population.code(),
                    label: log.label.clone(),
                };
                Some((index, key, Stamp::of(&metadata)))
            })
            .collect();
        let mut keys = vec![None; logs.len()];
        let mut misses: Vec<(usize, MemoKey)> = Vec::new();
        {
            let entries = self.entries.lock().expect("identity memo");
            for (index, key, stamp) in stamped {
                match (stamp, entries.get(&key)) {
                    (Some(stamp), Some(&(memoized, identity))) if stamp == memoized => {
                        keys[index] = Some(identity);
                    }
                    _ => misses.push((index, key)),
                }
            }
        }
        let counts = IdentityCounts {
            hits: keys.iter().flatten().count(),
            hashed: misses.len(),
            spawned: cores.min(misses.len()).saturating_sub(1),
        };
        let hashed = hash_all(population, &misses, counts.spawned);

        let mut entries = self.entries.lock().expect("identity memo");
        for ((index, key), hashed) in misses.into_iter().zip(hashed) {
            entries.remove(&key);
            let Some((stamp, identity)) = hashed else {
                continue;
            };
            keys[index] = Some(identity);
            if let Some(stamp) = stamp.filter(|stamp| stamp.trusted(began)) {
                if entries.len() >= MEMO_CAP {
                    entries.clear();
                }
                entries.insert(key, (stamp, identity));
            }
        }
        drop(entries);
        let registry = obs::global();
        registry
            .counter("serve_identity_memo_hits_total")
            .add(counts.hits as u64);
        registry
            .counter("serve_identity_hashed_total")
            .add(counts.hashed as u64);
        (keys, counts)
    }

    #[cfg(test)]
    fn len(&self) -> usize {
        self.entries.lock().expect("identity memo").len()
    }
}

/// Hashes every missed log, claimed by index across `spawned` scoped
/// threads and the caller's, each log opened only here: its stamp is the
/// `fstat` of the descriptor then hashed (`None` off Unix or if `fstat`
/// failed), so a rename in between cannot pair one file's stamp with
/// another file's key, and at most `spawned + 1` logs are open at once.
fn hash_all(
    population: Population,
    misses: &[(usize, MemoKey)],
    spawned: usize,
) -> Vec<Option<(Option<Stamp>, u128)>> {
    let hash = |key: &MemoKey| {
        let file = File::open(&key.path).ok()?;
        let stamp = file.metadata().ok().as_ref().and_then(Stamp::of);
        let identity = identity_of_open_file(population, &key.label, &file).ok()?;
        Some((stamp, identity))
    };
    // Relaxed: the counter only hands out indices; the results are
    // published by the mutex and the scope's joins.
    let next = AtomicUsize::new(0);
    let hashed = Mutex::new(vec![None; misses.len()]);
    let claim = || loop {
        let index = next.fetch_add(1, Ordering::Relaxed);
        let Some((_, key)) = misses.get(index) else {
            return;
        };
        let result = hash(key);
        hashed.lock().expect("identity keys")[index] = result;
    };
    std::thread::scope(|scope| {
        for _ in 0..spawned {
            scope.spawn(claim);
        }
        claim();
    });
    hashed.into_inner().expect("identity keys")
}

#[cfg(all(test, unix))]
pub(crate) mod tests {
    use super::*;
    use sparqlog_core::file_identity;
    use std::io::Write;
    use std::path::Path;

    /// A pass dated past the margin: a stamp taken now is trusted by it,
    /// as it would be by a real pass [`RACY_MARGIN`] from now.
    pub(crate) fn aged() -> SystemTime {
        SystemTime::now() + 2 * RACY_MARGIN
    }

    fn ctime(path: &Path) -> (i64, i64) {
        Stamp::of(&fs::metadata(path).unwrap()).unwrap().ctime
    }

    /// Returns once `path`'s ctime differs from `before`. A change that
    /// lands in the tick of the recorded stamp is the racy case the margin
    /// exists for; a test that dates its pass with [`aged`] must not build
    /// it. Setting the mtime the file already has moves its ctime to now.
    pub(crate) fn settle(path: &Path, before: (i64, i64)) {
        while ctime(path) == before {
            std::thread::sleep(Duration::from_millis(1));
            let file = File::options().write(true).open(path).unwrap();
            file.set_modified(file.metadata().unwrap().modified().unwrap())
                .unwrap();
        }
    }

    /// Rewrites `path` in place with other bytes of the same length and
    /// puts its mtime back, so only the ctime tells the change.
    pub(crate) fn rewrite_same_size(path: &Path) {
        let before = fs::metadata(path).unwrap();
        let mut bytes = fs::read(path).unwrap();
        bytes[0] ^= 0x20;
        let mut file = File::options().write(true).open(path).unwrap();
        file.write_all(&bytes).unwrap();
        file.set_modified(before.modified().unwrap()).unwrap();
        assert_eq!(
            file.metadata().unwrap().modified().unwrap(),
            before.modified().unwrap()
        );
        drop(file);
        settle(path, Stamp::of(&before).unwrap().ctime);
    }

    /// A fresh directory under the temp dir, removed on drop.
    struct Dir(PathBuf);

    impl Dir {
        fn new(name: &str) -> Dir {
            let dir = std::env::temp_dir()
                .join(format!("sparqlog-identity-{name}-{}", std::process::id()));
            let _ = fs::remove_dir_all(&dir);
            fs::create_dir_all(&dir).unwrap();
            Dir(dir)
        }

        fn log(&self, label: &str, contents: &str) -> LogSpec {
            let log = LogSpec::new(label, self.0.join(format!("{label}.log")));
            fs::write(&log.path, contents).unwrap();
            log
        }
    }

    impl Drop for Dir {
        fn drop(&mut self) {
            let _ = fs::remove_dir_all(&self.0);
        }
    }

    fn hashed(logs: &[LogSpec]) -> Vec<Option<u128>> {
        let hash = |log: &LogSpec| file_identity(Population::Unique, &log.label, &log.path).ok();
        logs.iter().map(hash).collect()
    }

    fn counts(hits: usize, hashed: usize, spawned: usize) -> IdentityCounts {
        IdentityCounts {
            hits,
            hashed,
            spawned,
        }
    }

    #[test]
    fn a_fully_memoized_pass_hashes_nothing_and_starts_no_thread() {
        let dir = Dir::new("memoized");
        let logs: Vec<LogSpec> = (0..4)
            .map(|i| dir.log(&format!("l{i}"), &"ASK { ?s ?p ?o }\n".repeat(i + 1)))
            .collect();
        let memo = IdentityMemo::default();
        let pass = || memo.identify(Population::Unique, &logs, 4, aged());
        assert_eq!(pass(), (hashed(&logs), counts(0, 4, 3)));
        assert_eq!(memo.len(), 4);
        assert_eq!(pass(), (hashed(&logs), counts(4, 0, 0)));
        // The key covers population and label: either one differing misses.
        let valid = memo.identify(Population::Valid, &logs[..1], 4, aged());
        assert_eq!(valid.1, counts(0, 1, 0));
        let relabelled = [LogSpec::new("other", logs[0].path.clone())];
        assert_eq!(
            memo.identify(Population::Unique, &relabelled, 4, aged()),
            (hashed(&relabelled), counts(0, 1, 0))
        );
    }

    #[test]
    fn a_file_changed_inside_the_margin_is_never_memoized() {
        let dir = Dir::new("racy");
        let logs = [dir.log("fresh", "ASK { ?s ?p ?o }\n")];
        let memo = IdentityMemo::default();
        let pass = || memo.identify(Population::Unique, &logs, 1, SystemTime::now());
        let before = hashed(&logs);
        assert_eq!(pass(), (before.clone(), counts(0, 1, 0)));
        assert_eq!(memo.len(), 0, "a file written just now was memoized");
        // Same size and mtime, no wait for a new tick: only the margin
        // tells this rewrite from the bytes hashed before.
        let mtime = fs::metadata(&logs[0].path).unwrap().modified().unwrap();
        fs::write(&logs[0].path, "ask { ?s ?p ?o }\n").unwrap();
        let file = File::options().write(true).open(&logs[0].path).unwrap();
        file.set_modified(mtime).unwrap();
        let after = hashed(&logs);
        assert_ne!(before, after);
        assert_eq!(pass(), (after, counts(0, 1, 0)));
        assert_eq!(memo.len(), 0);
    }

    #[test]
    fn a_file_renamed_over_the_path_is_rehashed() {
        let dir = Dir::new("renamed");
        let logs = [dir.log("log", "ASK { ?s ?p ?o }\n")];
        let memo = IdentityMemo::default();
        let pass = || memo.identify(Population::Unique, &logs, 1, aged());
        let first = hashed(&logs);
        assert_eq!(pass(), (first.clone(), counts(0, 1, 0)));
        let before = fs::metadata(&logs[0].path).unwrap();
        // Same size, same mtime, another inode.
        let other = dir.log("other", "ask { ?s ?p ?o }\n");
        let file = File::options().write(true).open(&other.path).unwrap();
        file.set_modified(before.modified().unwrap()).unwrap();
        fs::rename(&other.path, &logs[0].path).unwrap();
        settle(&logs[0].path, Stamp::of(&before).unwrap().ctime);
        let after = hashed(&logs);
        assert_ne!(first, after);
        assert_eq!(pass(), (after.clone(), counts(0, 1, 0)));
        assert_eq!(pass(), (after, counts(1, 0, 0)));
    }

    #[test]
    fn an_unreadable_log_has_no_key_and_no_entry() {
        let dir = Dir::new("missing");
        let logs = [
            LogSpec::new("gone", dir.0.join("gone.log")),
            dir.log("here", "ASK { ?s ?p ?o }\n"),
        ];
        let memo = IdentityMemo::default();
        let (keys, counts) = memo.identify(Population::Unique, &logs, 2, aged());
        assert_eq!(keys, hashed(&logs));
        assert_eq!((keys[0], counts.hashed, memo.len()), (None, 1, 1));
    }

    #[test]
    fn a_full_memo_is_cleared() {
        let dir = Dir::new("cap");
        let path = dir.log("log", "ASK { ?s ?p ?o }\n").path;
        let labelled = |count: usize, prefix: &str| -> Vec<LogSpec> {
            (0..count)
                .map(|i| LogSpec::new(format!("{prefix}{i}"), path.clone()))
                .collect()
        };
        let memo = IdentityMemo::default();
        let logs = labelled(MEMO_CAP, "a");
        memo.identify(Population::Unique, &logs, 1, aged());
        assert_eq!(memo.len(), MEMO_CAP);
        let one_more = labelled(1, "b");
        assert_eq!(
            memo.identify(Population::Unique, &one_more, 1, aged()),
            (hashed(&one_more), counts(0, 1, 0))
        );
        assert_eq!(memo.len(), 1);
        assert_eq!(
            memo.identify(Population::Unique, &logs[..1], 1, aged())
                .1
                .hits,
            0
        );
    }

    #[test]
    fn only_a_ctime_older_than_the_margin_is_trusted() {
        let at = |secs: i64, nanos: i64| Stamp {
            dev: 0,
            ino: 0,
            size: 0,
            mtime: (0, 0),
            ctime: (secs, nanos),
        };
        let began = UNIX_EPOCH + Duration::from_secs(1_000);
        assert!(at(997, 999_999_999).trusted(began));
        assert!(!at(998, 0).trusted(began));
        assert!(!at(2_000, 0).trusted(began), "a ctime in the future");
        assert!(!at(-1, 0).trusted(began), "a ctime before the epoch");
        assert!(!at(997, -1).trusted(began));
    }
}
