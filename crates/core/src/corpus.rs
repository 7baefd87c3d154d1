//! The input side of the engine: raw logs, the Table-1 counts, the
//! streaming [`LogReader`]s and the batch source the workers drain.
//!
//! A log reaches the engine as a [`LogReader`] — in-memory entries
//! ([`MemoryLogReader`], [`SliceLogReader`]) or a buffered line-oriented
//! stream ([`LineLogReader`] / [`FileLogReader`]: one entry per line, `\n`
//! or `\r\n` terminated). The fused engine ([`analyze_streams`], defined in
//! [`crate::fused`] and re-exported here) pulls batches from the readers
//! through a batch source with one lane — one lock — per log. A worker reads
//! a batch into its one reusable [`EntryBlock`], so raw entries live only for
//! the duration of their batch and reading allocates nothing per entry; the
//! lane assigns the batch's entry positions, so a malformed line is tallied
//! at the same entry position whatever the worker count.
//!
//! [`RawLog`] is the fully resident form of a log: what the synthetic corpus
//! generator produces and what the sequential oracle
//! ([`crate::baseline::analyze_reference`]) consumes.

use crate::recover::{reader_defect, ErrorTally, ReaderDefect};
use serde::{Deserialize, Serialize};
use sparqlog_parser::bytescan::find_newline;
use sparqlog_parser::ErrorKind;
use std::hash::{BuildHasherDefault, Hasher};
use std::io::{self, BufRead, BufReader};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

pub use sparqlog_parser::{canonical_fingerprint, CanonicalHasher};

pub use crate::fused::{
    analyze_streams, analyze_streams_cached, analyze_streams_with, FusedAnalysis, FusedOptions,
    FusedStats, LogSummary,
};

/// One raw log: a label (dataset name) and its entries in log order.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RawLog {
    /// The dataset label (e.g. `"DBpedia15"`).
    pub label: String,
    /// The raw log entries.
    pub entries: Vec<String>,
}

impl RawLog {
    /// Creates a raw log.
    pub fn new(label: impl Into<String>, entries: Vec<String>) -> RawLog {
        RawLog {
            label: label.into(),
            entries,
        }
    }
}

sparqlog_algebra::tally! {
    /// The Table-1 accounting for one dataset.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
    pub struct CorpusCounts {
        /// Total log entries.
        sum pub total: u64,
        /// Entries that parse as SPARQL queries.
        sum pub valid: u64,
        /// Distinct valid queries (after canonicalization).
        sum pub unique: u64,
        /// Valid queries without a body (the paper reports 4.47 % corpus-wide,
        /// almost all of them DESCRIBE queries).
        sum pub bodyless: u64,
    }
}

/// The worker count used by the engine's pools when no explicit
/// count is given: [`workers_override`] if set, otherwise the available
/// parallelism. The override exists so CI can pin the pools to 1/2/8
/// workers and assert that reports stay byte-identical on real multi-core
/// runners.
pub fn default_workers() -> usize {
    workers_override().unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// The `SPARQLOG_WORKERS` environment variable if it is set to a positive
/// integer; `None` when it is unset, empty, `0` or not a number.
pub fn workers_override() -> Option<usize> {
    std::env::var("SPARQLOG_WORKERS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n > 0)
}

/// Entries per parse chunk: large enough to amortize scheduling, small
/// enough that a single large log spreads over every core.
pub(crate) const INGEST_CHUNK: usize = 512;

// ---------------------------------------------------------------------------
// Streaming log readers.
// ---------------------------------------------------------------------------

/// A batch of entries in one reusable allocation: the entries' text back to
/// back in one `String`, and where each entry ends. A worker owns one block,
/// clears it before every claim and lets the reader append to it, so
/// steady-state reading allocates nothing per entry.
#[derive(Debug, Default)]
pub struct EntryBlock {
    text: String,
    ends: Vec<usize>,
}

impl EntryBlock {
    /// An empty block.
    pub fn new() -> EntryBlock {
        EntryBlock::default()
    }

    /// Forgets every entry and keeps the allocations.
    pub fn clear(&mut self) {
        self.text.clear();
        self.ends.clear();
    }

    /// Appends one entry.
    pub fn push(&mut self, entry: &str) {
        self.text.push_str(entry);
        self.ends.push(self.text.len());
    }

    /// How many entries the block holds.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// Whether the block holds no entry.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// The bytes of every entry together (terminators are not stored).
    pub fn text_len(&self) -> usize {
        self.text.len()
    }

    /// The entries in the order they were appended.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &str> + '_ {
        let mut start = 0;
        self.ends.iter().map(move |&end| {
            let entry = &self.text[start..end];
            start = end;
            entry
        })
    }
}

/// A source of raw log entries consumed incrementally, batch by batch, so the
/// ingestion pipeline never needs a full `&[RawLog]` resident in memory.
///
/// The engine reads through [`read_block`](LogReader::read_block), into a
/// block its worker reuses for every batch; [`read_batch`](LogReader::read_batch)
/// is the same read copied out into owned strings.
///
/// Implementations: [`MemoryLogReader`] (owned entries, freed as they are
/// read), [`SliceLogReader`] (borrowed entries), and [`LineLogReader`] /
/// [`FileLogReader`] (buffered line-oriented streams: one line per entry,
/// `\n` or `\r\n` terminated, with or without a trailing newline).
pub trait LogReader: Send {
    /// The dataset label of this log.
    fn label(&self) -> &str;

    /// Appends up to `max` entries to `block` and returns how many were
    /// appended. Returning `0` signals the end of the log.
    ///
    /// A malformed entry is an error whose [`ReaderDefect`] payload names
    /// it; the entries read before it stay appended, the malformed one takes
    /// up its position in the log, and the next call resumes after it.
    fn read_block(&mut self, block: &mut EntryBlock, max: usize) -> io::Result<usize>;

    /// [`read_block`](LogReader::read_block) into owned strings: appends up
    /// to `max` entries to `batch`, with the same end-of-log and defect
    /// rules. Entries pass one at a time through a one-entry block, so the
    /// copy-out does not first build a whole batch's block.
    fn read_batch(&mut self, batch: &mut Vec<String>, max: usize) -> io::Result<usize> {
        let mut block = EntryBlock::new();
        for appended in 0..max {
            block.clear();
            if self.read_block(&mut block, 1)? == 0 {
                return Ok(appended);
            }
            batch.extend(block.iter().map(str::to_owned));
        }
        Ok(max)
    }

    /// How many entries remain, when cheaply known (in-memory readers). The
    /// pool uses the hint to avoid spawning more workers than there are
    /// batches; `None` (the default, and what stream-backed readers return)
    /// leaves the worker count untouched.
    fn size_hint(&self) -> Option<usize> {
        None
    }
}

/// A [`LogReader`] over an owned entry list. Each entry is copied into the
/// reading worker's block and freed, so the raw log shrinks as ingestion
/// progresses.
#[derive(Debug)]
pub struct MemoryLogReader {
    label: String,
    entries: std::vec::IntoIter<String>,
}

impl MemoryLogReader {
    /// Creates a reader that drains `entries` in order.
    pub fn new(label: impl Into<String>, entries: Vec<String>) -> MemoryLogReader {
        MemoryLogReader {
            label: label.into(),
            entries: entries.into_iter(),
        }
    }
}

impl LogReader for MemoryLogReader {
    fn label(&self) -> &str {
        &self.label
    }

    fn read_block(&mut self, block: &mut EntryBlock, max: usize) -> io::Result<usize> {
        let before = block.len();
        for entry in self.entries.by_ref().take(max) {
            block.push(&entry);
        }
        Ok(block.len() - before)
    }

    fn size_hint(&self) -> Option<usize> {
        Some(self.entries.len())
    }
}

/// A [`LogReader`] over borrowed entries (e.g. a [`RawLog`] the caller keeps
/// owning); each batch is copied into the reading worker's block.
#[derive(Debug)]
pub struct SliceLogReader<'a> {
    label: &'a str,
    entries: &'a [String],
    position: usize,
}

impl<'a> SliceLogReader<'a> {
    /// Creates a reader over a label and a borrowed entry slice.
    pub fn new(label: &'a str, entries: &'a [String]) -> SliceLogReader<'a> {
        SliceLogReader {
            label,
            entries,
            position: 0,
        }
    }

    /// Creates a reader over a borrowed [`RawLog`].
    pub fn of(log: &'a RawLog) -> SliceLogReader<'a> {
        SliceLogReader::new(&log.label, &log.entries)
    }
}

impl LogReader for SliceLogReader<'_> {
    fn label(&self) -> &str {
        self.label
    }

    fn read_block(&mut self, block: &mut EntryBlock, max: usize) -> io::Result<usize> {
        let end = self.position.saturating_add(max).min(self.entries.len());
        for entry in &self.entries[self.position..end] {
            block.push(entry);
        }
        let appended = end - self.position;
        self.position = end;
        Ok(appended)
    }

    fn size_hint(&self) -> Option<usize> {
        Some(self.entries.len() - self.position)
    }
}

/// The assumed average log-line length (bytes, terminator included) used to
/// turn a file size into an entry-count estimate for worker clamping. Real
/// SPARQL log lines run one to a few hundred bytes; the estimate only has to
/// be in the right order of magnitude — it sizes the worker pool, never the
/// result.
const ESTIMATED_LINE_BYTES: u64 = 128;

/// A [`LogReader`] over any buffered byte stream, one entry per line. Lines
/// are terminated by `\n` or `\r\n` (the terminator is stripped); a final
/// line without a trailing newline still counts as an entry, and an empty
/// stream yields no entries.
///
/// Lines are cut straight out of the stream's buffer: the parser's SWAR
/// `find_newline` search finds the terminator a machine word at a time, the
/// line is checked as UTF-8 in place and appended to the caller's
/// [`EntryBlock`]. Only a line that straddles a buffer refill is gathered in
/// a carry buffer first, which keeps its allocation from line to line.
#[derive(Debug)]
pub struct LineLogReader<R> {
    label: String,
    reader: R,
    /// Bytes of a line whose terminator has not been seen yet (the line
    /// straddles a buffer refill, or the stream ended without a newline).
    pending: Vec<u8>,
    /// Lines produced so far; makes the 1-based line number of a malformed
    /// line available to the [`ReaderDefect`] error payload.
    line: u64,
    /// Estimated entries remaining, when the stream's total size is known up
    /// front (file-backed readers); decremented as lines are read.
    estimated_remaining: Option<usize>,
}

impl<R: BufRead + Send> LineLogReader<R> {
    /// Creates a line reader over a buffered stream (no size hint — the
    /// worker clamp of [`analyze_streams_with`] leaves the pool unchanged).
    pub fn new(label: impl Into<String>, reader: R) -> LineLogReader<R> {
        LineLogReader {
            label: label.into(),
            reader,
            pending: Vec::new(),
            line: 0,
            estimated_remaining: None,
        }
    }

    /// Creates a line reader with an up-front estimate of how many entries
    /// the stream holds, so the ingestion pool can clamp its worker count
    /// for stream-backed sources too.
    pub fn with_estimated_entries(
        label: impl Into<String>,
        reader: R,
        entries: usize,
    ) -> LineLogReader<R> {
        LineLogReader {
            label: label.into(),
            reader,
            pending: Vec::new(),
            line: 0,
            estimated_remaining: Some(entries),
        }
    }

    /// Appends lines to `block` until it holds `target` entries or the
    /// stream ends; stops at the first malformed line, after consuming it.
    fn fill(&mut self, block: &mut EntryBlock, target: usize) -> io::Result<()> {
        while block.len() < target {
            let buffer = self.reader.fill_buf()?;
            if buffer.is_empty() {
                // End of stream: an unterminated final line is still an entry.
                if self.pending.is_empty() {
                    return Ok(());
                }
                self.line += 1;
                let pushed = push_line(block, &self.pending, false, &self.label, self.line);
                self.pending.clear();
                return pushed;
            }
            let mut used = 0;
            let mut pushed = Ok(());
            while block.len() < target {
                let Some(position) = find_newline(&buffer[used..]) else {
                    self.pending.extend_from_slice(&buffer[used..]);
                    used = buffer.len();
                    break;
                };
                let line = &buffer[used..used + position];
                used += position + 1;
                self.line += 1;
                pushed = if self.pending.is_empty() {
                    push_line(block, line, true, &self.label, self.line)
                } else {
                    self.pending.extend_from_slice(line);
                    let pushed = push_line(block, &self.pending, true, &self.label, self.line);
                    self.pending.clear();
                    pushed
                };
                if pushed.is_err() {
                    break;
                }
            }
            self.reader.consume(used);
            pushed?;
        }
        Ok(())
    }
}

/// Appends one line (`\n` already excluded) to `block`. A trailing `\r` is
/// stripped only when a `\n` terminator was actually found —
/// `BufRead::read_line` semantics: an unterminated final line ending in `\r`
/// keeps that byte. Invalid UTF-8 surfaces as an `InvalidData` error whose
/// [`ReaderDefect`] payload names the log and the 1-based line number, so a
/// strict-mode failure points at the offending line and a lenient run can
/// tally it.
fn push_line(
    block: &mut EntryBlock,
    mut line: &[u8],
    newline_terminated: bool,
    label: &str,
    number: u64,
) -> io::Result<()> {
    if newline_terminated {
        if let [rest @ .., b'\r'] = line {
            line = rest;
        }
    }
    let text = std::str::from_utf8(line).map_err(|_| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            ReaderDefect {
                label: label.to_string(),
                line: number,
            },
        )
    })?;
    block.push(text);
    Ok(())
}

impl<R: BufRead + Send> LogReader for LineLogReader<R> {
    fn label(&self) -> &str {
        &self.label
    }

    fn read_block(&mut self, block: &mut EntryBlock, max: usize) -> io::Result<usize> {
        let before = block.len();
        let filled = self.fill(block, before.saturating_add(max));
        let appended = block.len() - before;
        if let Some(remaining) = &mut self.estimated_remaining {
            *remaining = remaining.saturating_sub(appended);
        }
        filled.map(|()| appended)
    }

    fn size_hint(&self) -> Option<usize> {
        self.estimated_remaining
    }
}

/// A buffered line reader over a file on disk.
pub type FileLogReader = LineLogReader<BufReader<std::fs::File>>;

impl FileLogReader {
    /// Opens a log file for streaming ingestion. For regular files, the byte
    /// length (from metadata) divided by an average-line estimate seeds
    /// [`LogReader::size_hint`], so worker clamping works for file-backed
    /// ingestion too: a 4-line quickstart log no longer spawns a full pool.
    /// Non-regular files (FIFOs, character devices) report no meaningful
    /// length and get no hint, leaving the pool unclamped. The estimate
    /// never affects results, only the schedule.
    pub fn open(
        label: impl Into<String>,
        path: impl AsRef<std::path::Path>,
    ) -> io::Result<FileLogReader> {
        let file = std::fs::File::open(path)?;
        let metadata = file.metadata()?;
        let reader = BufReader::new(file);
        if !metadata.is_file() {
            return Ok(LineLogReader::new(label, reader));
        }
        let estimated =
            usize::try_from(metadata.len().div_ceil(ESTIMATED_LINE_BYTES)).unwrap_or(usize::MAX);
        Ok(LineLogReader::with_estimated_entries(
            label, reader, estimated,
        ))
    }
}

/// A pass-through hasher for canonical fingerprints: the keys are already
/// uniform 128-bit FNV-1a outputs, so hashing them again (SipHash, the
/// `HashSet` default) is pure overhead. Folds the two halves instead.
#[derive(Debug, Default, Clone)]
pub struct FingerprintHasher(u64);

impl Hasher for FingerprintHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        // Only reached if a non-u128 key is hashed; fold bytes in so the
        // hasher stays correct for any key type.
        for &b in bytes {
            self.0 = self.0.rotate_left(8) ^ u64::from(b);
        }
    }

    fn write_u128(&mut self, value: u128) {
        self.0 = value as u64 ^ (value >> 64) as u64;
    }
}

/// The `BuildHasher` for fingerprint-keyed tables (the occurrence maps, the
/// [`AnalysisCache`](crate::cache::AnalysisCache)): fingerprints pass
/// through [`FingerprintHasher`] unhashed.
pub type FingerprintBuildHasher = BuildHasherDefault<FingerprintHasher>;

/// A multiply-rotate hasher for the analysis records the
/// [`AnalysisCache`](crate::cache::AnalysisCache) interns into classes.
/// A record's derived `Hash` issues dozens of small integer writes (one per
/// flag, counter and discriminant); each costs one rotate, xor and multiply
/// here, where SipHash would pay a full round per write. Unlike SipHash it
/// does not resist keys crafted to collide — the trade the fingerprint
/// tables already make: a log's author reaches a record only through the
/// flags and counts the analyses report.
#[derive(Debug, Default, Clone)]
pub(crate) struct RecordHasher(u64);

impl RecordHasher {
    /// ⌊2⁶⁴/φ⌋: odd, so the multiply is a bijection, with well-spread bits.
    const MULTIPLIER: u64 = 0x9e37_79b9_7f4a_7c15;

    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(Self::MULTIPLIER);
    }
}

impl Hasher for RecordHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        // Records hash through the integer writes below; a byte slice only
        // arrives from a key type with text in it.
        for &byte in bytes {
            self.add(u64::from(byte));
        }
    }

    #[inline]
    fn write_u8(&mut self, value: u8) {
        self.add(u64::from(value));
    }

    #[inline]
    fn write_u32(&mut self, value: u32) {
        self.add(u64::from(value));
    }

    #[inline]
    fn write_u64(&mut self, value: u64) {
        self.add(value);
    }

    #[inline]
    fn write_usize(&mut self, value: usize) {
        self.add(value as u64);
    }
}

/// The `BuildHasher` of the analysis cache's class table: records hash
/// through [`RecordHasher`].
pub(crate) type RecordBuildHasher = BuildHasherDefault<RecordHasher>;

/// The tag of one claimed batch: which log it belongs to and the 0-based
/// position of its first entry in that log. Positions are assigned under
/// the log's own lane lock, in the log's order, which is what makes
/// error-exemplar positions identical for every worker count and batch
/// schedule.
pub(crate) type BatchTag = (usize, u64);

/// One log's lane of the [`BatchSource`]: its reader and everything the
/// reader's position decides. Held under the lane's own lock.
struct Lane<'a> {
    reader: Box<dyn LogReader + 'a>,
    /// Entry positions assigned so far (the log's Table-1 total at the end).
    total: u64,
    /// Reader-defect tally (only [`ErrorKind::InvalidUtf8`] so far); merged
    /// into the log's parse tallies at the end of the run.
    tally: ErrorTally,
    /// The reader has reported its end.
    done: bool,
}

/// The batch dispenser the workers drain: one lane per log, each under its
/// own lock, so workers reading different logs never wait for each other.
/// A batch is read under its lane's lock; parsing and fingerprinting happen
/// outside it.
///
/// A worker takes an untaken log from an atomic cursor and claims that
/// log's batches. Once every log is taken, a worker whose log has run dry
/// joins an unfinished one, searching onward from its last log, so the
/// joiners spread over the logs still being read.
///
/// A reader error that fails the run stops the lanes of that log and every
/// later one; earlier logs drain. The run then reports the failure of the
/// first failing log whatever the schedule, as reading the logs in order
/// would.
pub(crate) struct BatchSource<'a> {
    lanes: Vec<Mutex<Lane<'a>>>,
    /// The next log no worker has taken yet (past the end once all are).
    untaken: AtomicUsize,
    /// The first failed log (`usize::MAX` while none has): it and the logs
    /// after it hand out no more batches.
    stop_from: AtomicUsize,
    /// The first failed log's index and reader error.
    failure: Mutex<Option<(usize, io::Error)>>,
    batch_size: usize,
    /// Whether reader-level defects (malformed lines) recover: tallied
    /// per log here, at the source, instead of failing the run.
    recover: bool,
}

impl<'a> BatchSource<'a> {
    pub(crate) fn new(
        readers: Vec<Box<dyn LogReader + 'a>>,
        batch_size: usize,
        recover: bool,
    ) -> BatchSource<'a> {
        let lanes = readers
            .into_iter()
            .map(|reader| {
                Mutex::new(Lane {
                    reader,
                    total: 0,
                    tally: ErrorTally::default(),
                    done: false,
                })
            })
            .collect();
        BatchSource {
            lanes,
            untaken: AtomicUsize::new(0),
            stop_from: AtomicUsize::new(usize::MAX),
            failure: Mutex::new(None),
            batch_size,
            recover,
        }
    }

    /// Fills the cleared `block` with the next batch of the worker whose
    /// last lane is `lane` and returns its [`BatchTag`], or `None` when
    /// every log is drained or stopped. `lane` starts as `None` and follows
    /// the worker from log to log.
    pub(crate) fn next_batch(
        &self,
        lane: &mut Option<usize>,
        block: &mut EntryBlock,
    ) -> Option<BatchTag> {
        if let Some(index) = *lane {
            if let Some(start) = self.claim(index, block) {
                return Some((index, start));
            }
        }
        let count = self.lanes.len();
        let ticket = loop {
            let ticket = self.untaken.fetch_add(1, Ordering::Relaxed);
            if ticket >= count {
                break ticket;
            }
            *lane = Some(ticket);
            if let Some(start) = self.claim(ticket, block) {
                return Some((ticket, start));
            }
        };
        // Every log is taken: join an unfinished one. A worker that never
        // had a log starts where its ticket points, so the joiners fan out.
        let from = lane.map_or(ticket, |index| index + 1);
        for step in 0..count {
            let index = (from + step) % count;
            if let Some(start) = self.claim(index, block) {
                *lane = Some(index);
                return Some((index, start));
            }
        }
        None
    }

    /// Reads the next batch of lane `index` into `block` under that lane's
    /// lock and returns the position of its first entry, or `None` when the
    /// lane is drained.
    ///
    /// A recoverable reader defect (a malformed line, when `recover` is
    /// set) is tallied here and consumes one entry position; the partially
    /// filled batch — the valid lines read before the defect — is returned
    /// immediately so every batch stays position-contiguous. A real I/O
    /// error (or any reader error in strict mode) fails the run: it is kept
    /// for [`finish`](BatchSource::finish) unless an earlier log has failed,
    /// and this lane and the later ones stop.
    fn claim(&self, index: usize, block: &mut EntryBlock) -> Option<u64> {
        debug_assert!(block.is_empty(), "a claim fills a cleared block");
        let mut lane = self.lanes[index]
            .lock()
            .expect("fused workers must not panic");
        loop {
            if lane.done || index >= self.stop_from.load(Ordering::Relaxed) {
                return None;
            }
            let start = lane.total;
            match lane.reader.read_block(block, self.batch_size) {
                Ok(0) => lane.done = true,
                Ok(appended) => {
                    lane.total += appended as u64;
                    return Some(start);
                }
                Err(error) => {
                    // Lines read before the defect are already in `block`.
                    let appended = block.len() as u64;
                    if self.recover && reader_defect(&error) {
                        lane.tally.record(ErrorKind::InvalidUtf8, start + appended);
                        // The defective line occupies an entry position of
                        // its own, after the lines that preceded it.
                        lane.total += appended + 1;
                        if appended > 0 {
                            return Some(start);
                        }
                        continue;
                    }
                    lane.done = true;
                    block.clear();
                    let mut failure = self.failure.lock().expect("fused workers must not panic");
                    if failure.as_ref().is_none_or(|&(first, _)| index < first) {
                        *failure = Some((index, error));
                        self.stop_from.fetch_min(index, Ordering::Relaxed);
                    }
                    return None;
                }
            }
        }
    }

    /// Each log's entry count and reader-defect tally, in reader order, or
    /// the reader error that failed the run.
    pub(crate) fn finish(self) -> io::Result<Vec<(u64, ErrorTally)>> {
        let failure = self
            .failure
            .into_inner()
            .expect("fused workers must not panic");
        if let Some((_, error)) = failure {
            return Err(error);
        }
        Ok(self
            .lanes
            .into_iter()
            .map(|lane| {
                let lane = lane.into_inner().expect("fused workers must not panic");
                (lane.total, lane.tally)
            })
            .collect())
    }
}

/// When every reader can say how much work remains, don't spawn more workers
/// than there are batches (a 4-entry quickstart log on a 64-core machine
/// needs one worker, not 64 no-op threads). Batches never span readers, so
/// the batch count is the *per-reader* sum of ceilings — eight 100-entry
/// logs are eight claimable batches, not one.
pub(crate) fn clamp_workers(
    readers: &[Box<dyn LogReader + '_>],
    workers: usize,
    batch_size: usize,
) -> usize {
    match readers
        .iter()
        .map(|r| r.size_hint())
        .try_fold(0usize, |sum, hint| {
            hint.map(|n| sum + n.div_ceil(batch_size))
        }) {
        Some(batches) => workers.min(batches.max(1)),
        None => workers,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::Population;

    fn counts_of(entries: &[&str]) -> CorpusCounts {
        analyze_streams(
            crate::fused::test_readers(&[("test", entries)]),
            Population::Unique,
        )
        .expect("in-memory streams")
        .summaries[0]
            .counts
    }

    #[test]
    fn counts_total_valid_unique() {
        let counts = counts_of(&[
            "SELECT ?x WHERE { ?x a <http://C> }",
            "SELECT   ?x   WHERE { ?x a <http://C> }", // duplicate modulo whitespace
            "not a sparql query at all",
            "ASK { <http://s> <http://p> <http://o> }",
            "DESCRIBE <http://r>",
        ]);
        assert_eq!(counts.total, 5);
        assert_eq!(counts.valid, 4);
        assert_eq!(counts.unique, 3);
        assert_eq!(counts.bodyless, 1);
    }

    #[test]
    fn duplicates_with_different_prefixes_collapse() {
        let counts = counts_of(&[
            "PREFIX dbo: <http://dbpedia.org/ontology/> SELECT ?x WHERE { ?x a dbo:Film }",
            "PREFIX o: <http://dbpedia.org/ontology/> SELECT ?x WHERE { ?x a o:Film }",
        ]);
        assert_eq!(counts.valid, 2);
        assert_eq!(counts.unique, 1);
    }
    #[test]
    fn fingerprint_reexports_reach_the_parser_implementation() {
        // Behaviour is covered in parser::display; this only pins the
        // compatibility re-exports.
        let canonical = "SELECT ?x WHERE { ?x <http://p> ?y }";
        assert_eq!(
            canonical_fingerprint(canonical),
            sparqlog_parser::canonical_fingerprint(canonical)
        );
        let mut hasher = CanonicalHasher::new();
        let _ = std::fmt::Write::write_str(&mut hasher, canonical);
        assert_eq!(hasher.finish(), canonical_fingerprint(canonical));
    }

    #[test]
    fn find_newline_agrees_with_naive_search_at_every_offset() {
        // Newlines at every position of a buffer spanning several machine
        // words, including none at all and bytes ≥ 0x80 (the SWAR trick's
        // borrow propagation must never mis-report the first match).
        for len in 0..40 {
            let mut bytes: Vec<u8> = (0..len).map(|i| 0x41 + (i as u8 % 26)).collect();
            assert_eq!(find_newline(&bytes), None, "len {len}");
            for position in 0..len {
                let saved = bytes[position];
                bytes[position] = b'\n';
                if position > 0 {
                    bytes[position - 1] = 0xC3; // non-ASCII noise before the hit
                }
                assert_eq!(find_newline(&bytes), Some(position), "len {len}");
                bytes[position] = saved;
                if position > 0 {
                    bytes[position - 1] = 0x41 + ((position - 1) as u8 % 26);
                }
            }
        }
        // Two newlines: the first wins.
        assert_eq!(find_newline(b"ab\ncd\nef"), Some(2));
    }

    #[test]
    fn unterminated_final_line_keeps_a_trailing_carriage_return() {
        // `read_line` semantics: `\r` is only part of a `\r\n` terminator;
        // at end of stream with no `\n`, it is a data byte.
        let mut reader = LineLogReader::new("t", io::Cursor::new(b"first\r\nlast\r".to_vec()));
        let mut batch = Vec::new();
        assert_eq!(reader.read_batch(&mut batch, 10).unwrap(), 2);
        assert_eq!(batch, vec!["first".to_string(), "last\r".to_string()]);
    }

    #[test]
    fn corpus_counts_merge() {
        let mut a = CorpusCounts {
            total: 10,
            valid: 8,
            unique: 5,
            bodyless: 1,
        };
        let b = CorpusCounts {
            total: 2,
            valid: 2,
            unique: 2,
            bodyless: 0,
        };
        a.merge(&b);
        assert_eq!(a.total, 12);
        assert_eq!(a.valid, 10);
        assert_eq!(a.unique, 7);
    }
}
