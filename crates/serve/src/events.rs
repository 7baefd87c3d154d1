//! The structured event journal: one line per supervision event, stamped
//! with milliseconds since server start and a monotonic `seq=` correlation
//! id, kept in memory for the `Events` request and optionally mirrored to a
//! file (the CI fault jobs upload it as an artifact).
//!
//! Lines follow the stable [`EventRecord`] `key=value` schema, so consumers
//! parse them back into typed records instead of scraping text:
//!
//! ```text
//! t=12 seq=0 event=worker-start job=1 partition=0 attempt=0 pid=4711 threads=2
//! t=340 seq=1 event=worker-death job=1 partition=0 attempt=0 error="shard 0: worker exited with status 3"
//! t=395 seq=2 event=partition-recovered job=1 partition=0 latency_ms=55
//! ```

use sparqlog_obs::EventRecord;
use std::fs::File;
use std::io::Write;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// An append-only, timestamp- and sequence-stamped event journal shared
/// across the server's threads.
#[derive(Debug)]
pub struct EventLog {
    start: Instant,
    journal: Mutex<Journal>,
}

/// What one lock guards, so a line is stamped, mirrored and stored as one
/// step: concurrent emitters cannot store `seq=` out of order, and the file
/// lists lines in the order memory does.
#[derive(Debug)]
struct Journal {
    /// Every line so far, oldest first; a line's `seq=` is its index.
    lines: Vec<String>,
    sink: Option<File>,
}

impl EventLog {
    /// An in-memory event log starting now.
    pub fn new() -> EventLog {
        EventLog::over(None)
    }

    /// An event log that also appends every line to `path` (created or
    /// truncated), flushing per line so a crashed server leaves a usable
    /// artifact.
    pub fn with_file(path: &Path) -> std::io::Result<EventLog> {
        Ok(EventLog::over(Some(File::create(path)?)))
    }

    fn over(sink: Option<File>) -> EventLog {
        EventLog {
            start: Instant::now(),
            journal: Mutex::new(Journal {
                lines: Vec::new(),
                sink,
            }),
        }
    }

    fn journal(&self) -> std::sync::MutexGuard<'_, Journal> {
        self.journal.lock().expect("event log lock")
    }

    /// Appends one event line (without the timestamp/sequence prefix —
    /// both are stamped here). The line must already be `key=value`
    /// tokens; [`EventLog::emit_record`] builds that shape safely.
    pub fn emit(&self, line: impl AsRef<str>) {
        let mut journal = self.journal();
        let stamped = format!(
            "t={} seq={} {}",
            self.start.elapsed().as_millis(),
            journal.lines.len(),
            line.as_ref().trim_end()
        );
        if let Some(file) = &mut journal.sink {
            let _ = writeln!(file, "{stamped}");
            let _ = file.flush();
        }
        journal.lines.push(stamped);
    }

    /// Appends one structured event, stamping `t=` and `seq=` ahead of its
    /// fields. The record's own quoting rules keep the line parseable.
    pub fn emit_record(&self, record: EventRecord) {
        self.emit(record.render());
    }

    /// All lines emitted so far, oldest first.
    pub fn snapshot(&self) -> Vec<String> {
        self.journal().lines.clone()
    }

    /// Every line parsed back into a typed [`EventRecord`], oldest first.
    /// Lines are emitted through the same schema, so parsing cannot fail
    /// in practice; a hand-emitted malformed line is skipped rather than
    /// poisoning the whole journal.
    pub fn records(&self) -> Vec<EventRecord> {
        self.journal()
            .lines
            .iter()
            .filter_map(|line| EventRecord::parse(line).ok())
            .collect()
    }

    /// The typed records whose `job=` field equals `job`.
    pub fn records_for_job(&self, job: u64) -> Vec<EventRecord> {
        self.records()
            .into_iter()
            .filter(|record| record.u64("job") == Some(job))
            .collect()
    }

    /// The lines mentioning job `job` (matched on the ` job=<id>` token, so
    /// job 1 does not match job 11).
    pub fn for_job(&self, job: u64) -> Vec<String> {
        let needle = format!(" job={job}");
        self.journal()
            .lines
            .iter()
            .filter(|line| {
                line.split_whitespace()
                    .any(|token| token == needle.trim_start())
            })
            .cloned()
            .collect()
    }
}

impl Default for EventLog {
    fn default() -> EventLog {
        EventLog::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn emit_stamps_and_filters_by_job() {
        let log = EventLog::new();
        log.emit("event=worker-start job=1 partition=0");
        log.emit("event=worker-start job=11 partition=0");
        log.emit("event=job-complete job=1");
        let all = log.snapshot();
        assert_eq!(all.len(), 3);
        assert!(all.iter().all(|line| line.starts_with("t=")));
        let job1 = log.for_job(1);
        assert_eq!(job1.len(), 2, "{job1:?}");
        assert!(job1.iter().all(|line| line.contains(" job=1")));
        assert_eq!(log.for_job(11).len(), 1);
        assert_eq!(log.for_job(99).len(), 0);
    }

    #[test]
    fn file_sink_mirrors_lines() {
        let dir = std::env::temp_dir().join(format!("sparqlog-events-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("events.log");
        let log = EventLog::with_file(&path).unwrap();
        log.emit("event=drain");
        let contents = std::fs::read_to_string(&path).unwrap();
        assert!(contents.contains("event=drain"), "{contents}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_emitters_store_seq_in_order_and_the_file_agrees() {
        const THREADS: usize = 8;
        const EMITS: usize = 2_000;
        let dir =
            std::env::temp_dir().join(format!("sparqlog-events-concurrent-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("events.log");
        let log = EventLog::with_file(&path).unwrap();
        let start = std::sync::Barrier::new(THREADS);
        std::thread::scope(|scope| {
            for thread in 0..THREADS {
                let (log, start) = (&log, &start);
                scope.spawn(move || {
                    start.wait();
                    for _ in 0..EMITS {
                        log.emit(format!("event=tick thread={thread}"));
                    }
                });
            }
        });
        let lines = log.snapshot();
        let seqs = log.records().into_iter().filter_map(|r| r.seq());
        assert!(
            seqs.eq(0..(THREADS * EMITS) as u64),
            "seq= must be stored strictly increasing"
        );
        let contents = std::fs::read_to_string(&path).unwrap();
        assert!(
            contents.lines().eq(lines.iter().map(String::as_str)),
            "the mirrored file must list lines in memory order"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn records_parse_back_with_correlation_ids() {
        let log = EventLog::new();
        log.emit_record(
            EventRecord::new("worker-start")
                .with("job", 1u64)
                .with("partition", 0u64)
                .with("pid", 4711u64),
        );
        log.emit_record(
            EventRecord::new("worker-death")
                .with("job", 2u64)
                .with("error", "exited with status 3"),
        );
        let records = log.records();
        assert_eq!(records.len(), 2);
        // seq= is monotonic from zero; t= is always stamped.
        assert_eq!(records[0].seq(), Some(0));
        assert_eq!(records[1].seq(), Some(1));
        assert!(records.iter().all(|r| r.timestamp_ms().is_some()));
        assert_eq!(records[0].event(), "worker-start");
        assert_eq!(records[0].u64("pid"), Some(4711));
        assert_eq!(
            records[1].get("error"),
            Some("exited with status 3"),
            "quoted values survive the journal round trip"
        );
        let job2 = log.records_for_job(2);
        assert_eq!(job2.len(), 1);
        assert_eq!(job2[0].event(), "worker-death");
    }
}
