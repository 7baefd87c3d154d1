//! The durable snapshot store: a single append-only file of CRC-checked
//! records with explicit commit points and a truncate-to-last-commit
//! recovery scan.
//!
//! # File format
//!
//! ```text
//! "SQPS" version        -- 5-byte header (magic + format version)
//! record*               -- append-only records, each one codec frame:
//!   varint payload-len
//!   payload             -- first byte is the record tag
//!   crc32c(payload)     -- 4 bytes little-endian (Castagnoli)
//! ```
//!
//! A record *is* a frame of the shard codec
//! ([`write_frame`] writes it, [`FrameReader`] reads it back), the same
//! frame the worker stream and the service protocol use. The store's own
//! header and version are independent of the codec's `SQSN` stream header.
//!
//! Payload tags: [`TAG_SNAPSHOT`] (a per-log analysis keyed by its
//! canonical identity), [`TAG_JOB`] (a completed serve job's manifest) and
//! [`TAG_COMMIT`] (sequence number + how many records it covers). Records
//! between two commits are **provisional**: a crash before the commit
//! record leaves them in the file, and the next [`SnapshotStore::open`]
//! drops them.
//!
//! Version history: 1 stored each log's fingerprint/occurrence list in its
//! snapshots; 2 does not. 3 has the same records as 2, but keys snapshots by
//! identities from the four-lane `hash128`, so no version-2 key would ever
//! be looked up again. A file of an older version fails the header check and
//! is reinitialized (see Recovery), so each of its logs is re-analysed once.
//!
//! # The index holds locations
//!
//! In memory the store keeps, per snapshot key, only where its frame sits
//! in the file (offset and length), the payload behind that one
//! indirection. [`SnapshotStore::load`] reads the frame back with a
//! positional read and checks it exactly as the recovery scan does
//! (trailer checksum, then the record decoding); a record that no longer
//! checks is an [`io::ErrorKind::InvalidData`] error. A caller that must not
//! hold the store's lock while decoding takes a [`SnapshotRef`]
//! ([`SnapshotStore::locate`]) under it and loads through that afterwards.
//! [`SnapshotStore::get`] is a measuring-harness adapter that keeps the
//! decoded log of each key it is asked for; no library code calls it.
//!
//! # Durability protocol
//!
//! * Creating the store writes the header, `fsync`s the file, then
//!   `fsync`s the parent directory — data first, then the directory entry
//!   that names it.
//! * [`SnapshotStore::commit`] appends a commit record (whose payload
//!   cross-checks both the next sequence number and the number of records
//!   it covers), then `fsync`s file data. Nothing is durable until the
//!   commit's fsync returns.
//!
//! # Recovery
//!
//! [`SnapshotStore::open`] streams the whole file front to back through one
//! buffered reader, verifying every record's length, checksum and decoding,
//! and applying records to the in-memory index only when their covering
//! commit record is reached intact; a decoded snapshot is dropped as soon as
//! it has been checked, so opening costs neither the file's size nor its
//! snapshots' in memory. The first invalid point — torn length varint, short
//! payload, checksum mismatch, undecodable payload, commit-sequence gap —
//! stops the scan; the file is truncated back to the end of the **last valid
//! commit** and the [`RecoveryReport`] names exactly which byte range was
//! dropped and why. A file whose header is damaged is reinitialized from
//! scratch (reported as [`RecoveryReason::BadHeader`] with the full former
//! length dropped). `open` never panics on any input file.

use sparqlog_core::analysis::{DatasetAnalysis, Population};
use sparqlog_core::recover::RecoveryPolicy;
use sparqlog_core::{LogSummary, PersistedLog};
use sparqlog_obs as obs;
use sparqlog_shard::codec::{
    write_frame, DecodeError, DecodeErrorKind, Decoder, Encoder, FrameReader, StreamError,
};
use sparqlog_shard::faults::{self, StoreFault, STORE_FAULT_EXIT};
use sparqlog_shard::snapshot::Snapshot;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{self, BufReader, Read, Seek, SeekFrom, Write};
use std::ops::Range;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};

/// The store file's magic bytes.
pub const MAGIC: [u8; 4] = *b"SQPS";

/// The store format version.
pub const VERSION: u8 = 3;

/// Header length: magic + version byte.
const HEADER_LEN: u64 = 5;

/// Record tag: a per-log `(key, summary, analysis)` snapshot.
pub const TAG_SNAPSHOT: u8 = 1;

/// Record tag: a completed job's manifest (population, policy, log list).
pub const TAG_JOB: u8 = 2;

/// Record tag: a commit point (sequence number + records covered).
pub const TAG_COMMIT: u8 = 3;

// ---------------------------------------------------------------------------
// Job records.
// ---------------------------------------------------------------------------

/// One log of a persisted job manifest: its canonical identity plus the
/// label/path needed to warm-start the job without re-hashing anything.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobLog {
    /// The log's canonical identity (see `sparqlog_core::log_identity`).
    pub key: u128,
    /// The dataset label.
    pub label: String,
    /// The log's file path as submitted.
    pub path: String,
}

/// A completed job's manifest, persisted so a restarted daemon can
/// warm-start the job from its snapshot records alone.
#[derive(Debug, Clone, PartialEq)]
pub struct JobRecord {
    /// The population the job analysed.
    pub population: Population,
    /// The recovery policy the job ran under.
    pub recovery: RecoveryPolicy,
    /// The job's logs, in submission order.
    pub logs: Vec<JobLog>,
}

// ---------------------------------------------------------------------------
// Recovery reporting.
// ---------------------------------------------------------------------------

/// Why the recovery scan stopped where it did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecoveryReason {
    /// The file did not exist (or was empty); a fresh header was written.
    Created,
    /// Every byte was a valid committed record — nothing dropped.
    Clean,
    /// Valid records followed the last commit but no commit covered them —
    /// a crash between append and commit.
    Uncommitted,
    /// The file ended inside a record — a torn write.
    TornRecord,
    /// A record's payload did not match its stored checksum.
    ChecksumMismatch {
        /// The checksum stored in the file.
        expected: u32,
        /// The checksum computed over the payload found.
        found: u32,
    },
    /// A record's payload was checksummed correctly but undecodable, or a
    /// commit record's cross-checks (sequence, record count) failed.
    Malformed {
        /// Human-readable detail of the decode failure.
        detail: String,
    },
    /// The header was missing or damaged; the store was reinitialized and
    /// the whole former content dropped.
    BadHeader,
}

impl RecoveryReason {
    /// A stable one-token key for structured events and metric names —
    /// unlike [`Display`](fmt::Display), never free text.
    pub fn key(&self) -> &'static str {
        match self {
            RecoveryReason::Created => "created",
            RecoveryReason::Clean => "clean",
            RecoveryReason::Uncommitted => "uncommitted",
            RecoveryReason::TornRecord => "torn-record",
            RecoveryReason::ChecksumMismatch { .. } => "checksum-mismatch",
            RecoveryReason::Malformed { .. } => "malformed",
            RecoveryReason::BadHeader => "bad-header",
        }
    }
}

impl fmt::Display for RecoveryReason {
    fn fmt(&self, out: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecoveryReason::Created => write!(out, "created"),
            RecoveryReason::Clean => write!(out, "clean"),
            RecoveryReason::Uncommitted => write!(out, "uncommitted records"),
            RecoveryReason::TornRecord => write!(out, "torn record"),
            RecoveryReason::ChecksumMismatch { expected, found } => write!(
                out,
                "checksum mismatch (stored {expected:#010x}, computed {found:#010x})"
            ),
            RecoveryReason::Malformed { detail } => write!(out, "malformed record: {detail}"),
            RecoveryReason::BadHeader => write!(out, "bad header"),
        }
    }
}

/// What [`SnapshotStore::open`] found and did — every open produces one,
/// and its [`Display`](fmt::Display) line is what the serve daemon logs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Bytes the file held when opened.
    pub file_bytes: u64,
    /// Bytes kept after recovery (the end of the last valid commit).
    pub kept_bytes: u64,
    /// The byte range dropped by recovery, if any.
    pub dropped: Option<Range<u64>>,
    /// Whole, individually-valid records inside the dropped range (a torn
    /// or corrupt tail may hide more beyond the first invalid point).
    pub dropped_records: u64,
    /// Commit records applied.
    pub commits: u64,
    /// Snapshot records loaded into the index.
    pub snapshots: u64,
    /// Job manifests loaded.
    pub jobs: u64,
    /// Why the scan stopped where it did.
    pub reason: RecoveryReason,
}

impl RecoveryReport {
    /// Whether nothing was dropped (a clean or freshly-created store).
    pub fn is_clean(&self) -> bool {
        self.dropped.is_none()
    }

    /// Bytes dropped by the recovery scan (0 on a clean open).
    pub fn dropped_bytes(&self) -> u64 {
        self.dropped
            .as_ref()
            .map(|range| range.end - range.start)
            .unwrap_or(0)
    }

    /// Flushes this report into the metric registry: every open counts,
    /// and a recovery that dropped data additionally counts its reason and
    /// the dropped bytes/records.
    fn record_metrics(&self) {
        if !obs::enabled() {
            return;
        }
        let registry = obs::global();
        registry.counter("persist_opens_total").incr();
        if !self.is_clean() {
            registry.counter("persist_recoveries_total").incr();
            registry
                .counter("persist_recovery_dropped_bytes_total")
                .add(self.dropped_bytes());
            registry
                .counter("persist_recovery_dropped_records_total")
                .add(self.dropped_records);
        }
    }
}

impl fmt::Display for RecoveryReport {
    fn fmt(&self, out: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.dropped {
            None => write!(
                out,
                "store {}: kept {} bytes, {} commits, {} snapshots, {} jobs",
                self.reason, self.kept_bytes, self.commits, self.snapshots, self.jobs
            ),
            Some(range) => write!(
                out,
                "store recovered ({}): dropped bytes {}..{} ({} whole records), \
                 kept {} bytes, {} commits, {} snapshots, {} jobs",
                self.reason,
                range.start,
                range.end,
                self.dropped_records,
                self.kept_bytes,
                self.commits,
                self.snapshots,
                self.jobs
            ),
        }
    }
}

// ---------------------------------------------------------------------------
// The store.
// ---------------------------------------------------------------------------

/// The durable snapshot store (see the [module docs](self) for the format
/// and protocol). Opened with [`SnapshotStore::open`]; appends stage
/// records, [`SnapshotStore::commit`] makes them durable.
#[derive(Debug)]
pub struct SnapshotStore {
    /// Shared with every [`SnapshotRef`], which reads through it.
    file: Arc<File>,
    path: PathBuf,
    /// Bytes written so far, including uncommitted appends.
    length: u64,
    /// Bytes covered by the last commit (the recovery point).
    committed: u64,
    /// Sequence number of the last commit.
    seq: u64,
    /// Records appended since the last commit.
    pending: u64,
    /// Where each snapshot's frame sits in the file; the payload stays on
    /// disk until [`SnapshotStore::load`] reads it.
    index: HashMap<u128, Entry>,
    jobs: Vec<JobRecord>,
    /// `jobs` encoded: "the same job" means a byte-identical manifest.
    job_identities: HashSet<Vec<u8>>,
}

/// Where one record's whole frame (length varint, payload, checksum) sits
/// in the store file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Frame {
    offset: u64,
    len: u64,
}

/// One snapshot's index entry: its frame, plus the decoded log once
/// [`SnapshotStore::get`] has been asked for it (never filled otherwise).
#[derive(Debug)]
struct Entry {
    frame: Frame,
    decoded: OnceLock<Arc<PersistedLog>>,
}

/// A record read during the recovery scan, held provisionally until its
/// covering commit record arrives intact: a snapshot only by where it
/// sits, a job manifest decoded.
enum Staged {
    Snapshot(u128, Frame),
    Job(JobRecord),
}

/// A decoded record payload.
enum Decoded {
    Snapshot(u128, Box<PersistedLog>),
    Job(JobRecord),
    Commit { seq: u64, records: u64 },
}

/// One persisted snapshot's place in the store file, taken by
/// [`SnapshotStore::locate`] (a handle and two numbers, nothing decoded)
/// and read back by [`SnapshotRef::load`] without the store itself, so a
/// caller can decode outside whatever lock guards the store.
#[derive(Debug, Clone)]
pub struct SnapshotRef {
    file: Arc<File>,
    key: u128,
    frame: Frame,
}

impl SnapshotRef {
    /// Reads the snapshot's frame and checks it as the recovery scan does:
    /// the checksum trailer, then the record's decoding, which must be a
    /// snapshot under this key. A record that fails either check is an
    /// [`io::ErrorKind::InvalidData`] error, never a panic.
    pub fn load(&self) -> io::Result<PersistedLog> {
        let Frame { offset, len } = self.frame;
        let invalid = |detail: String| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("store record at byte {offset}: {detail}"),
            )
        };
        let mut bytes = vec![0u8; len as usize];
        self.file.read_exact_at(&mut bytes, offset)?;
        let mut frames = FrameReader::at_offset(bytes.as_slice(), offset);
        let payload = match frames.next_frame() {
            Ok(Some((payload, _))) if frames.offset() == offset + len => payload,
            Ok(_) => return Err(invalid("frame length changed".to_string())),
            Err(error) => return Err(invalid(error.to_string())),
        };
        match decode_record(&payload) {
            Ok(Decoded::Snapshot(key, log)) if key == self.key => Ok(*log),
            Ok(_) => Err(invalid(format!("not the snapshot of key {:#x}", self.key))),
            Err(detail) => Err(invalid(detail)),
        }
    }
}

impl SnapshotStore {
    /// Opens (creating if absent) the store at `path`, running the
    /// recovery scan described in the [module docs](self). Never panics on
    /// any file content; the report says what was kept and dropped.
    pub fn open(path: impl AsRef<Path>) -> io::Result<(SnapshotStore, RecoveryReport)> {
        let path = path.as_ref().to_path_buf();
        let file = Arc::new(
            OpenOptions::new()
                .read(true)
                .write(true)
                .create(true)
                .truncate(false)
                .open(&path)?,
        );
        let file_bytes = file.metadata()?.len();
        let mut reader = BufReader::new(&*file);
        let mut header = Vec::with_capacity(HEADER_LEN as usize);
        (&mut reader).take(HEADER_LEN).read_to_end(&mut header)?;

        // Header check: empty file → fresh store; damaged header → the
        // content is unreadable by construction, reinitialize.
        let header_ok =
            header.len() == HEADER_LEN as usize && header[..4] == MAGIC && header[4] == VERSION;
        if !header_ok {
            drop(reader);
            let reason = if file_bytes == 0 {
                RecoveryReason::Created
            } else {
                RecoveryReason::BadHeader
            };
            file.set_len(0)?;
            (&*file).seek(SeekFrom::Start(0))?;
            let mut header = MAGIC.to_vec();
            header.push(VERSION);
            (&*file).write_all(&header)?;
            file.sync_all()?;
            sync_parent_dir(&path)?;
            let report = RecoveryReport {
                file_bytes,
                kept_bytes: HEADER_LEN,
                dropped: (file_bytes > 0).then_some(0..file_bytes),
                dropped_records: 0,
                commits: 0,
                snapshots: 0,
                jobs: 0,
                reason,
            };
            report.record_metrics();
            return Ok((SnapshotStore::fresh(file, path), report));
        }

        // Scan records, applying them only at intact commit points.
        let mut frames = FrameReader::at_offset(reader, HEADER_LEN);
        let mut store = SnapshotStore::fresh(Arc::clone(&file), path);
        let mut provisional: Vec<Staged> = Vec::new();
        let mut commits = 0u64;
        let mut stop: Option<RecoveryReason> = None;
        loop {
            let offset = frames.offset();
            let payload = match frames.next_frame() {
                Ok(Some((payload, _))) => payload,
                Ok(None) => break,
                Err(error) => {
                    stop = Some(scan_stop(error));
                    break;
                }
            };
            let end = frames.offset();
            match decode_record(&payload) {
                Ok(Decoded::Commit { seq, records }) => {
                    if seq != store.seq + 1 {
                        stop = Some(RecoveryReason::Malformed {
                            detail: format!("commit sequence {seq} after commit {}", store.seq),
                        });
                        break;
                    }
                    if records != provisional.len() as u64 {
                        stop = Some(RecoveryReason::Malformed {
                            detail: format!(
                                "commit covers {records} records but {} were read",
                                provisional.len()
                            ),
                        });
                        break;
                    }
                    for record in provisional.drain(..) {
                        store.apply(record);
                    }
                    store.seq = seq;
                    store.committed = end;
                    commits += 1;
                }
                // Checked, so only its place is kept.
                Ok(Decoded::Snapshot(key, _)) => {
                    let frame = Frame {
                        offset,
                        len: end - offset,
                    };
                    provisional.push(Staged::Snapshot(key, frame));
                }
                Ok(Decoded::Job(job)) => provisional.push(Staged::Job(job)),
                Err(detail) => {
                    stop = Some(RecoveryReason::Malformed { detail });
                    break;
                }
            }
        }
        drop(frames);

        let dropped_records = provisional.len() as u64;
        let reason = match stop {
            None if dropped_records == 0 => RecoveryReason::Clean,
            None => RecoveryReason::Uncommitted,
            Some(reason) => reason,
        };
        let kept = store.committed;
        if kept < file_bytes {
            // Drop the invalid tail durably so a later crash cannot
            // resurrect it behind freshly-appended records.
            file.set_len(kept)?;
            file.sync_data()?;
        }
        (&*file).seek(SeekFrom::Start(kept))?;
        store.length = kept;
        let report = RecoveryReport {
            file_bytes,
            kept_bytes: kept,
            dropped: (kept < file_bytes).then_some(kept..file_bytes),
            dropped_records,
            commits,
            snapshots: store.index.len() as u64,
            jobs: store.jobs.len() as u64,
            reason,
        };
        report.record_metrics();
        Ok((store, report))
    }

    fn fresh(file: Arc<File>, path: PathBuf) -> SnapshotStore {
        SnapshotStore {
            file,
            path,
            length: HEADER_LEN,
            committed: HEADER_LEN,
            seq: 0,
            pending: 0,
            index: HashMap::new(),
            jobs: Vec::new(),
            job_identities: HashSet::new(),
        }
    }

    fn apply(&mut self, record: Staged) {
        match record {
            Staged::Snapshot(key, frame) => self.index_snapshot(key, frame),
            Staged::Job(job) => {
                self.job_identities.insert(encode_manifest(&job));
                self.jobs.push(job);
            }
        }
    }

    fn index_snapshot(&mut self, key: u128, frame: Frame) {
        let decoded = OnceLock::new();
        self.index.insert(key, Entry { frame, decoded });
    }

    /// The store file's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Where the snapshot under `key` sits, if one is persisted: a cheap
    /// handle whose [`SnapshotRef::load`] reads and decodes it later,
    /// without this store.
    pub fn locate(&self, key: u128) -> Option<SnapshotRef> {
        let entry = self.index.get(&key)?;
        Some(SnapshotRef {
            file: Arc::clone(&self.file),
            key,
            frame: entry.frame,
        })
    }

    /// Reads and decodes the snapshot under `key`: `Ok(None)` when none is
    /// persisted, an [`io::ErrorKind::InvalidData`] error when its record no
    /// longer passes the checksum or decoding (see [`SnapshotRef::load`]).
    pub fn load(&self, key: u128) -> io::Result<Option<PersistedLog>> {
        self.locate(key).map(|located| located.load()).transpose()
    }

    /// The snapshot under `key`, decoded on first use and then kept for the
    /// store's lifetime; `None` when none is persisted or it fails to load.
    ///
    /// An adapter for the measuring harness, which times a store hit as
    /// `get` + clone. No library code calls it: a caller that keeps the
    /// decoded log would grow the daemon with every log it serves, so the
    /// library reads through [`SnapshotStore::load`] instead.
    pub fn get(&self, key: u128) -> Option<&Arc<PersistedLog>> {
        let entry = self.index.get(&key)?;
        if entry.decoded.get().is_none() {
            let log = self.load(key).ok()??;
            let _ = entry.decoded.set(Arc::new(log));
        }
        entry.decoded.get()
    }

    /// Number of persisted per-log snapshots.
    pub fn snapshots(&self) -> usize {
        self.index.len()
    }

    /// Every persisted key, in ascending order.
    pub fn snapshot_keys(&self) -> Vec<u128> {
        let mut keys: Vec<u128> = self.index.keys().copied().collect();
        keys.sort_unstable();
        keys
    }

    /// The committed job manifests, in commit order.
    pub fn jobs(&self) -> &[JobRecord] {
        &self.jobs
    }

    /// Sequence number of the last commit (0 for a fresh store).
    pub fn sequence(&self) -> u64 {
        self.seq
    }

    /// Records appended but not yet covered by a commit.
    pub fn pending_records(&self) -> u64 {
        self.pending
    }

    /// Total bytes written, including any uncommitted tail.
    pub fn total_bytes(&self) -> u64 {
        self.length
    }

    /// Bytes covered by the last commit — what a crash right now keeps.
    pub fn committed_bytes(&self) -> u64 {
        self.committed
    }

    /// Appends a per-log snapshot under its canonical `key`. Returns
    /// `false` without writing when an intact record of the key is already
    /// persisted (appends are idempotent per key); a record that no longer
    /// loads (damaged on disk) is superseded by the fresh one. Durable only
    /// after [`SnapshotStore::commit`].
    pub fn record_snapshot(&mut self, key: u128, log: &PersistedLog) -> io::Result<bool> {
        if matches!(self.load(key), Ok(Some(_))) {
            return Ok(false);
        }
        let mut payload = Encoder::new();
        payload.put_u8(TAG_SNAPSHOT);
        payload.put_u128(key);
        log.summary.encode(&mut payload);
        log.analysis.encode(&mut payload);
        let offset = self.length;
        let len = self.append_record(&payload.into_bytes())?;
        self.index_snapshot(key, Frame { offset, len });
        Ok(true)
    }

    /// Appends a completed job's manifest. Returns `false` without writing
    /// when an identical manifest is already persisted — resubmitting the
    /// same job after a restart is idempotent. Durable only after
    /// [`SnapshotStore::commit`].
    pub fn record_job(&mut self, job: &JobRecord) -> io::Result<bool> {
        let manifest = encode_manifest(job);
        if self.job_identities.contains(&manifest) {
            return Ok(false);
        }
        let mut payload = vec![TAG_JOB];
        payload.extend_from_slice(&manifest);
        self.append_record(&payload)?;
        self.job_identities.insert(manifest);
        self.jobs.push(job.clone());
        Ok(true)
    }

    /// Appends one record's frame; returns the frame's length.
    fn append_record(&mut self, payload: &[u8]) -> io::Result<u64> {
        let mut bytes = Vec::new();
        write_frame(&mut bytes, payload)?;
        (&*self.file).write_all(&bytes)?;
        self.length += bytes.len() as u64;
        self.pending += 1;
        if obs::enabled() {
            let registry = obs::global();
            registry.counter("persist_records_total").incr();
            registry
                .counter("persist_appended_bytes_total")
                .add(bytes.len() as u64);
        }
        Ok(bytes.len() as u64)
    }

    /// Commits every record appended since the last commit: writes the
    /// commit record, then `fsync`s file data. A no-op (returning the
    /// current sequence) when nothing is pending. Returns the new sequence
    /// number.
    pub fn commit(&mut self) -> io::Result<u64> {
        if self.pending == 0 {
            return Ok(self.seq);
        }
        let _commit_span = obs::global().histogram("persist_commit_us").span();
        let fault = faults::store_injected();
        if fault == Some(StoreFault::DieBeforeCommit) {
            // Data records are appended; the commit record never lands.
            std::process::exit(STORE_FAULT_EXIT);
        }
        let mut payload = Encoder::new();
        payload.put_u8(TAG_COMMIT);
        payload.put_varint(self.seq + 1);
        payload.put_varint(self.pending);
        let mut bytes = Vec::new();
        write_frame(&mut bytes, &payload.into_bytes())?;
        if fault == Some(StoreFault::DieMidFrame) {
            // A torn write: half the commit record reaches the file.
            let _ = (&*self.file).write_all(&bytes[..bytes.len() / 2]);
            std::process::exit(STORE_FAULT_EXIT);
        }
        (&*self.file).write_all(&bytes)?;
        if fault == Some(StoreFault::DieAfterCommitPreFsync) {
            // The commit record is in the page cache but not fsynced; a
            // process death (unlike power loss) keeps it.
            std::process::exit(STORE_FAULT_EXIT);
        }
        {
            let _fsync_span = obs::global().histogram("persist_fsync_us").span();
            self.file.sync_data()?;
        }
        if obs::enabled() {
            let registry = obs::global();
            registry.counter("persist_commits_total").incr();
            registry.counter("persist_fsyncs_total").incr();
            registry
                .counter("persist_commit_bytes_total")
                .add(self.length + bytes.len() as u64 - self.committed);
        }
        self.length += bytes.len() as u64;
        self.committed = self.length;
        self.seq += 1;
        self.pending = 0;
        if fault == Some(StoreFault::BitFlip) {
            // At-rest corruption: flip one committed bit mid-file, sync,
            // die. The next open's CRC scan must find it.
            let _ = self.flip_committed_bit();
            std::process::exit(STORE_FAULT_EXIT);
        }
        Ok(self.seq)
    }

    fn flip_committed_bit(&mut self) -> io::Result<()> {
        let span = self.committed - HEADER_LEN;
        if span == 0 {
            return Ok(());
        }
        let target = HEADER_LEN + span / 2;
        let mut byte = [0u8; 1];
        self.file.read_exact_at(&mut byte, target)?;
        byte[0] ^= 1;
        self.file.write_all_at(&byte, target)?;
        self.file.sync_data()
    }
}

// ---------------------------------------------------------------------------
// Scan primitives.
// ---------------------------------------------------------------------------

/// Why a record could not be read: the file ends inside it, its checksum
/// trailer does not match, or its frame is malformed.
fn scan_stop(error: StreamError) -> RecoveryReason {
    match error {
        StreamError::Decode(DecodeError {
            kind: DecodeErrorKind::UnexpectedEof,
            ..
        }) => RecoveryReason::TornRecord,
        StreamError::Decode(DecodeError {
            kind: DecodeErrorKind::ChecksumMismatch { expected, found },
            ..
        }) => RecoveryReason::ChecksumMismatch { expected, found },
        other => RecoveryReason::Malformed {
            detail: other.to_string(),
        },
    }
}

/// Decodes one checksummed payload into a record, or a human-readable
/// reason it is malformed.
fn decode_record(payload: &[u8]) -> Result<Decoded, String> {
    let mut input = Decoder::new(payload);
    let decoded = (|| {
        let record = match input.take_u8()? {
            TAG_SNAPSHOT => {
                let key = input.take_u128()?;
                let summary = LogSummary::decode(&mut input)?;
                let analysis = DatasetAnalysis::decode(&mut input)?;
                Decoded::Snapshot(key, Box::new(PersistedLog { summary, analysis }))
            }
            TAG_JOB => {
                let code = input.take_u8()?;
                let population = Population::from_code(code)
                    .ok_or_else(|| input.invalid("job population", u64::from(code)))?;
                let spelling = input.take_str()?;
                let recovery = RecoveryPolicy::parse(&spelling)
                    .ok_or_else(|| input.invalid("job recovery policy", 0))?;
                let count = input.take_usize()?;
                let mut logs = Vec::with_capacity(count.min(1 << 16));
                for _ in 0..count {
                    logs.push(JobLog {
                        key: input.take_u128()?,
                        label: input.take_str()?,
                        path: input.take_str()?,
                    });
                }
                Decoded::Job(JobRecord {
                    population,
                    recovery,
                    logs,
                })
            }
            TAG_COMMIT => Decoded::Commit {
                seq: input.take_varint()?,
                records: input.take_varint()?,
            },
            other => return Err(input.invalid("record tag", u64::from(other))),
        };
        input.finish()?;
        Ok(record)
    })();
    decoded.map_err(|error| error.to_string())
}

/// A job manifest as a [`TAG_JOB`] record carries it after its tag.
fn encode_manifest(job: &JobRecord) -> Vec<u8> {
    let mut out = Encoder::new();
    out.put_u8(job.population.code());
    out.put_str(&job.recovery.spelling());
    out.put_usize(job.logs.len());
    for log in &job.logs {
        out.put_u128(log.key);
        out.put_str(&log.label);
        out.put_str(&log.path);
    }
    out.into_bytes()
}

/// `fsync`s the directory holding `path`, making the file's directory
/// entry itself durable (the second half of the data-then-directory
/// protocol).
fn sync_parent_dir(path: &Path) -> io::Result<()> {
    let parent = match path.parent() {
        Some(parent) if !parent.as_os_str().is_empty() => parent,
        _ => Path::new("."),
    };
    File::open(parent)?.sync_all()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparqlog_core::corpus::CorpusCounts;
    use sparqlog_core::recover::ErrorTally;

    fn scratch(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("sparqlog-persist-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample(label: &str) -> PersistedLog {
        PersistedLog {
            summary: LogSummary {
                label: label.to_string(),
                counts: CorpusCounts::default(),
                errors: ErrorTally::default(),
            },
            analysis: DatasetAnalysis {
                label: label.to_string(),
                ..DatasetAnalysis::default()
            },
        }
    }

    fn sample_job() -> JobRecord {
        JobRecord {
            population: Population::Unique,
            recovery: RecoveryPolicy::Lenient,
            logs: vec![JobLog {
                key: 7,
                label: "alpha".to_string(),
                path: "/logs/alpha.log".to_string(),
            }],
        }
    }

    #[test]
    fn a_fresh_store_is_created_then_reopens_clean() {
        let dir = scratch("fresh");
        let path = dir.join("store.sqps");
        let (store, report) = SnapshotStore::open(&path).unwrap();
        assert_eq!(report.reason, RecoveryReason::Created);
        assert_eq!(report.kept_bytes, HEADER_LEN);
        assert!(report.is_clean());
        assert_eq!(store.snapshots(), 0);
        drop(store);
        let (_, report) = SnapshotStore::open(&path).unwrap();
        assert_eq!(report.reason, RecoveryReason::Clean);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn golden_bytes_pin_the_store_layout() {
        let dir = scratch("golden");
        let path = dir.join("store.sqps");
        let (mut store, _) = SnapshotStore::open(&path).unwrap();
        assert!(store.record_job(&sample_job()).unwrap());
        assert_eq!(store.commit().unwrap(), 1);
        drop(store);
        let golden: &[&[u8]] = &[
            // Header: magic + version 3.
            b"SQPS\x03",
            // Job record: length 49; tag 2, population Unique, policy
            // "lenient", one log (key 7 as 16 LE bytes, label, path); CRC32C.
            b"\x31\x02\x00\x07lenient\x01",
            b"\x07\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00",
            b"\x05alpha\x0f/logs/alpha.log",
            b"\x2f\x8f\xb1\x10",
            // Commit record: length 3; tag 3, sequence 1, covers 1; CRC32C.
            b"\x03\x03\x01\x01",
            b"\x7d\x78\x83\x6b",
        ];
        assert_eq!(std::fs::read(&path).unwrap(), golden.concat());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn committed_records_survive_reopen_byte_for_byte() {
        let dir = scratch("roundtrip");
        let path = dir.join("store.sqps");
        let (mut store, _) = SnapshotStore::open(&path).unwrap();
        let (alpha, beta) = (sample("alpha"), sample("beta"));
        assert!(store.record_snapshot(1, &alpha).unwrap());
        assert!(store.record_snapshot(2, &beta).unwrap());
        assert!(store.record_job(&sample_job()).unwrap());
        assert_eq!(store.commit().unwrap(), 1);
        drop(store);

        let (store, report) = SnapshotStore::open(&path).unwrap();
        assert_eq!(report.reason, RecoveryReason::Clean);
        assert_eq!((report.commits, report.snapshots, report.jobs), (1, 2, 1));
        assert_eq!(store.load(1).unwrap(), Some(alpha));
        assert_eq!(store.load(2).unwrap(), Some(beta));
        assert_eq!(store.jobs(), &[sample_job()]);
        assert_eq!(store.sequence(), 1);
        assert_eq!(store.snapshot_keys(), vec![1, 2]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_snapshot_loads_as_soon_as_it_is_appended_and_keeps_only_its_place() {
        let dir = scratch("load");
        let path = dir.join("store.sqps");
        let (mut store, _) = SnapshotStore::open(&path).unwrap();
        let alpha = sample("alpha");
        assert!(store.record_snapshot(1, &alpha).unwrap());
        // Readable before the commit: the frame is in the file already.
        assert_eq!(store.load(1).unwrap(), Some(alpha.clone()));
        assert_eq!(store.load(2).unwrap(), None);
        let entry = &store.index[&1];
        assert_eq!(entry.frame.offset, HEADER_LEN);
        assert_eq!(entry.frame.len, store.total_bytes() - HEADER_LEN);
        assert!(entry.decoded.get().is_none(), "load must not keep the log");
        store.commit().unwrap();
        let located = store.locate(1).unwrap();
        drop(store);
        // A handle outlives the store that handed it out.
        assert_eq!(located.load().unwrap(), alpha);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_record_damaged_after_open_fails_to_load_as_invalid_data() {
        let dir = scratch("damaged");
        let path = dir.join("store.sqps");
        let (mut store, _) = SnapshotStore::open(&path).unwrap();
        store.record_snapshot(1, &sample("alpha")).unwrap();
        let second = store.total_bytes();
        store.record_snapshot(2, &sample("beta")).unwrap();
        store.commit().unwrap();
        // Flip a payload bit of the second snapshot behind the store's back.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[second as usize + 3] ^= 1;
        std::fs::write(&path, &bytes).unwrap();
        let error = store.load(2).unwrap_err();
        assert_eq!(error.kind(), io::ErrorKind::InvalidData);
        assert!(error.to_string().contains("checksum"), "{error}");
        assert!(store.load(1).unwrap().is_some());
        // A frame whose length no longer matches its place is caught too.
        bytes[HEADER_LEN as usize] ^= 1;
        std::fs::write(&path, &bytes).unwrap();
        let error = store.load(1).unwrap_err();
        assert_eq!(error.kind(), io::ErrorKind::InvalidData);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn uncommitted_records_are_dropped_and_the_range_is_named() {
        let dir = scratch("uncommitted");
        let path = dir.join("store.sqps");
        let (mut store, _) = SnapshotStore::open(&path).unwrap();
        store.record_snapshot(1, &sample("alpha")).unwrap();
        store.commit().unwrap();
        let committed = store.committed_bytes();
        store.record_snapshot(2, &sample("beta")).unwrap();
        let total = store.total_bytes();
        assert!(total > committed);
        drop(store); // no commit for beta

        let (store, report) = SnapshotStore::open(&path).unwrap();
        assert_eq!(report.reason, RecoveryReason::Uncommitted);
        assert_eq!(report.dropped, Some(committed..total));
        assert_eq!(report.dropped_records, 1);
        assert!(store.load(1).unwrap().is_some());
        assert!(store.load(2).unwrap().is_none());
        assert_eq!(store.total_bytes(), committed);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_torn_tail_truncates_to_the_last_commit() {
        let dir = scratch("torn");
        let path = dir.join("store.sqps");
        let (mut store, _) = SnapshotStore::open(&path).unwrap();
        store.record_snapshot(1, &sample("alpha")).unwrap();
        store.commit().unwrap();
        let committed = store.committed_bytes();
        drop(store);
        // A record declaring 32 payload bytes but delivering 3 — torn.
        let mut file = OpenOptions::new().append(true).open(&path).unwrap();
        file.write_all(&[32, 0xAA, 0xBB, 0xCC]).unwrap();
        drop(file);

        let (store, report) = SnapshotStore::open(&path).unwrap();
        assert_eq!(report.reason, RecoveryReason::TornRecord);
        assert_eq!(report.dropped, Some(committed..committed + 4));
        assert!(store.load(1).unwrap().is_some());
        assert_eq!(std::fs::metadata(&path).unwrap().len(), committed);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_flipped_committed_bit_is_caught_by_checksum() {
        let dir = scratch("bitflip");
        let path = dir.join("store.sqps");
        let (mut store, _) = SnapshotStore::open(&path).unwrap();
        store.record_snapshot(1, &sample("alpha")).unwrap();
        store.commit().unwrap();
        let first = store.committed_bytes();
        store.record_snapshot(2, &sample("beta")).unwrap();
        store.commit().unwrap();
        drop(store);
        // Flip a payload bit inside the second snapshot record (skipping
        // its length varint).
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[first as usize + 3] ^= 1;
        std::fs::write(&path, &bytes).unwrap();

        let (store, report) = SnapshotStore::open(&path).unwrap();
        assert!(matches!(
            report.reason,
            RecoveryReason::ChecksumMismatch { .. }
        ));
        assert_eq!(report.kept_bytes, first);
        assert!(store.load(1).unwrap().is_some());
        assert!(store.load(2).unwrap().is_none());

        // The store is immediately usable: re-record what was lost.
        let mut store = store;
        assert!(store.record_snapshot(2, &sample("beta")).unwrap());
        store.commit().unwrap();
        let (store, report) = SnapshotStore::open(&path).unwrap();
        assert_eq!(report.reason, RecoveryReason::Clean);
        assert!(store.load(2).unwrap().is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_damaged_header_reinitializes_and_reports_the_loss() {
        let dir = scratch("header");
        let path = dir.join("store.sqps");
        std::fs::write(&path, b"garbage").unwrap();
        let (mut store, report) = SnapshotStore::open(&path).unwrap();
        assert_eq!(report.reason, RecoveryReason::BadHeader);
        assert_eq!(report.dropped, Some(0..7));
        store.record_snapshot(1, &sample("alpha")).unwrap();
        store.commit().unwrap();
        drop(store);
        let (_, report) = SnapshotStore::open(&path).unwrap();
        assert_eq!(report.reason, RecoveryReason::Clean);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_version_one_store_reopens_empty() {
        let dir = scratch("version-one");
        let path = dir.join("store.sqps");
        std::fs::write(&path, b"SQPS\x01").unwrap();
        let (store, report) = SnapshotStore::open(&path).unwrap();
        assert_eq!(report.reason, RecoveryReason::BadHeader);
        assert_eq!(report.dropped, Some(0..5));
        assert_eq!(store.snapshots(), 0);
        assert!(store.jobs().is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_version_two_store_reopens_empty() {
        // A committed store with version 2's records: its snapshot keys are
        // identities no submit computes any more, so all of it is dropped.
        let dir = scratch("version-two");
        let path = dir.join("store.sqps");
        let (mut store, _) = SnapshotStore::open(&path).unwrap();
        assert!(store.record_snapshot(1, &sample("alpha")).unwrap());
        assert!(store.record_job(&sample_job()).unwrap());
        store.commit().unwrap();
        drop(store);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[4] = 2;
        std::fs::write(&path, &bytes).unwrap();
        let (store, report) = SnapshotStore::open(&path).unwrap();
        assert_eq!(report.reason, RecoveryReason::BadHeader);
        assert_eq!(report.dropped, Some(0..bytes.len() as u64));
        assert_eq!(store.snapshots(), 0);
        assert!(store.jobs().is_empty());
        drop(store);
        assert_eq!(std::fs::read(&path).unwrap(), b"SQPS\x03");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn duplicate_snapshots_and_jobs_are_not_rewritten() {
        let dir = scratch("dedup");
        let path = dir.join("store.sqps");
        let (mut store, _) = SnapshotStore::open(&path).unwrap();
        assert!(store.record_snapshot(1, &sample("alpha")).unwrap());
        let bytes = store.total_bytes();
        assert!(!store.record_snapshot(1, &sample("alpha")).unwrap());
        assert_eq!(store.total_bytes(), bytes);
        assert!(store.record_job(&sample_job()).unwrap());
        assert!(!store.record_job(&sample_job()).unwrap());
        store.commit().unwrap();
        drop(store);
        // Idempotence holds across a reopen, too.
        let (mut store, _) = SnapshotStore::open(&path).unwrap();
        assert!(!store.record_snapshot(1, &sample("alpha")).unwrap());
        assert!(!store.record_job(&sample_job()).unwrap());
        assert_eq!(store.pending_records(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn an_empty_commit_is_a_no_op() {
        let dir = scratch("empty-commit");
        let path = dir.join("store.sqps");
        let (mut store, _) = SnapshotStore::open(&path).unwrap();
        let bytes = store.total_bytes();
        assert_eq!(store.commit().unwrap(), 0);
        assert_eq!(store.total_bytes(), bytes);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn recovery_reports_render_one_line_summaries() {
        let report = RecoveryReport {
            file_bytes: 130,
            kept_bytes: 100,
            dropped: Some(100..130),
            dropped_records: 1,
            commits: 2,
            snapshots: 3,
            jobs: 1,
            reason: RecoveryReason::TornRecord,
        };
        let line = report.to_string();
        assert!(line.contains("dropped bytes 100..130"), "{line}");
        assert!(line.contains("torn record"), "{line}");
        assert!(!report.is_clean());
    }
}
