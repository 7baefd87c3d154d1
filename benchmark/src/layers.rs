//! Every call the benchmark makes into the codebase, in one file: this is
//! the benchmark's contract with the program. Layers are measured from
//! outside, through public functions only; nothing here is reachable from
//! the program, and the program has no switch that knows it is benchmarked.
//!
//! Three groups:
//!
//! * the **measured units** — one batch pass ([`analyze_and_render`]) and
//!   the daemon client calls ([`Daemon`], [`submit`], [`settle`],
//!   [`fetch`]) — used by the end-to-end workloads;
//! * the **cumulative-stage replay** ([`replay`]): single-threaded stages
//!   over a workload's files where stage *k* runs layers 1..*k*, so a
//!   layer's self time is stage *k* − stage *k*−1;
//! * one-call **probes** of the shard codec, the worker process, the
//!   snapshot store and the identity hash.

use crate::gen::LogTruth;
use crate::sys::ChildGuard;
use sparqlog::algebra::{classify_fragments_from_walk_ref, QueryWalkRef};
use sparqlog::core::corpus::{
    analyze_streams, analyze_streams_with, CorpusCounts, FileLogReader, FusedAnalysis,
    FusedOptions, LogReader,
};
use sparqlog::core::{
    file_identity, report, CorpusAnalysis, DatasetAnalysis, ErrorTally, PersistedLog, Population,
    QueryAnalysis, RecoveryPolicy,
};
use sparqlog::graph::StructuralReport;
use sparqlog::obs::MetricsSnapshot;
use sparqlog::parser::{canonical_fingerprint_of_ref, lexer, parse_query_in, Arena, Interner};
use sparqlog::persist::SnapshotStore;
use sparqlog::serve::{Client, ClientError, ConnectRetry, JobPhase, ServeAddr};
use sparqlog::shard::codec::write_stream_header;
use sparqlog::shard::{
    analyze_sharded, read_snapshot, AssignedLog, EpilogueFrame, Frame, LogFrame, LogSpec,
    ShardOptions, WorkerCommand, WorkerLaunch,
};
use std::collections::HashMap;
use std::io;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{Duration, Instant};

/// The population every workload analyses: the paper's main corpus.
pub const POPULATION: Population = Population::Unique;

/// Entries per `read_batch` call in the replay — the engine's own batch size.
const BATCH: usize = 512;

/// A unit of work that errors or hangs this long counts as failed.
pub const UNIT_TIMEOUT: Duration = Duration::from_secs(60);

fn other(error: impl std::fmt::Display) -> io::Error {
    io::Error::other(error.to_string())
}

// ---------------------------------------------------------------------------
// The measured batch unit.
// ---------------------------------------------------------------------------

fn open_readers(logs: &[LogTruth]) -> io::Result<Vec<Box<dyn LogReader>>> {
    logs.iter()
        .map(|log| {
            FileLogReader::open(log.label.clone(), &log.path)
                .map(|reader| Box::new(reader) as Box<dyn LogReader>)
        })
        .collect()
}

/// What one batch pass hands back.
#[derive(Debug)]
pub struct Pass {
    pub report: String,
    pub fused: FusedAnalysis,
}

impl Pass {
    pub fn counts(&self) -> Vec<CorpusCounts> {
        self.fused.summaries.iter().map(|s| s.counts).collect()
    }

    /// Useful cache outcomes ÷ attempts, from `FusedAnalysis.stats`.
    pub fn cache_hit_ratio(&self) -> f64 {
        let cache = self.fused.stats.cache.unwrap_or_default();
        cache.hits as f64 / (cache.hits + cache.misses).max(1) as f64
    }
}

/// The engine half of a batch pass exactly as a user of the library runs
/// it: files in, corpus analysis out, on the default worker pool.
pub fn analyze(logs: &[LogTruth]) -> io::Result<FusedAnalysis> {
    analyze_streams(open_readers(logs)?, POPULATION)
}

/// The same, pinned to `workers` threads (for `core.scale_2w` and the
/// single-threaded CPU the replay is judged against).
pub fn analyze_with(logs: &[LogTruth], workers: usize) -> io::Result<FusedAnalysis> {
    let options = FusedOptions {
        workers,
        ..FusedOptions::default()
    };
    analyze_streams_with(open_readers(logs)?, POPULATION, options)
}

/// The render half: the full report text.
pub fn render(fused: &FusedAnalysis) -> String {
    report::full_report(&fused.corpus)
}

/// One whole batch pass: the in-process reference every report is held to.
pub fn analyze_and_render(logs: &[LogTruth]) -> io::Result<Pass> {
    let fused = analyze(logs)?;
    Ok(Pass {
        report: render(&fused),
        fused,
    })
}

/// The oracle: the program's Table-1 counts against what the generator
/// wrote. Returns one line per disagreement.
pub fn oracle_mismatches(truth: &[LogTruth], counts: &[CorpusCounts]) -> Vec<String> {
    if truth.len() != counts.len() {
        return vec![format!(
            "{} logs generated, {} reported",
            truth.len(),
            counts.len()
        )];
    }
    truth
        .iter()
        .zip(counts)
        .filter(|(t, c)| {
            (t.total, t.valid, t.unique, t.bodyless) != (c.total, c.valid, c.unique, c.bodyless)
        })
        .map(|(t, c)| {
            format!(
                "{}: generated total/valid/unique/bodyless {}/{}/{}/{}, program says {}/{}/{}/{}",
                t.label,
                t.total,
                t.valid,
                t.unique,
                t.bodyless,
                c.total,
                c.valid,
                c.unique,
                c.bodyless
            )
        })
        .collect()
}

/// Switches the program's own metric recording off or on in this process
/// (the in-process face of `SPARQLOG_METRICS`), for `obs.overhead_pct`.
pub fn set_program_metrics(on: bool) {
    sparqlog::obs::set_enabled(on);
}

/// This process's metric registry, as the program would answer a scrape.
pub fn local_metrics() -> MetricsSnapshot {
    sparqlog::obs::global().snapshot()
}

/// One line on a program-side latency histogram: the program's own view of
/// a stage, printed beside the external probes to flag drift.
pub fn histogram_line(snapshot: &MetricsSnapshot, name: &str) -> String {
    match snapshot
        .histogram(name)
        .and_then(|h| Some((h.count, h.mean()?)))
    {
        Some((count, mean)) => format!("{name}: mean {mean:.0} us over {count} samples"),
        None => format!("{name}: no samples"),
    }
}

// ---------------------------------------------------------------------------
// The cumulative-stage replay.
// ---------------------------------------------------------------------------

/// The stages of the replay, in running order. Per-entry stages are
/// cumulative from `Read`; per-distinct stages are cumulative from
/// `DistinctParse`; `Fold` and `Render` stand alone.
#[derive(Debug, Clone, Copy)]
enum Stage {
    Read,
    Lex,
    Parse,
    Fingerprint,
    DistinctParse,
    Walk,
    Fragments,
    Structural,
    Analyze,
    Fold,
    Render,
}

const STAGES: usize = Stage::Render as usize + 1;

/// Stage times and work counts of the batch layers over one set of files.
#[derive(Debug, Default, Clone)]
pub struct Replay {
    pub entries: u64,
    pub bytes: u64,
    pub valid: u64,
    pub distinct: u64,
    pub tokens: u64,
    pub arena_bytes: u64,
    stage_ns: [u64; STAGES],
    /// The report assembled from the replayed layers; byte-identical to the
    /// engine's when the replay did the engine's work.
    pub report: String,
}

impl Replay {
    /// Several replays of the same files as one: each stage at its
    /// fastest. The host's interference only ever adds time, so the
    /// fastest run of a stage is the closest to what the stage costs.
    pub fn fastest(replays: Vec<Replay>) -> Option<Replay> {
        replays.into_iter().reduce(|mut best, next| {
            for (kept, seen) in best.stage_ns.iter_mut().zip(next.stage_ns) {
                *kept = (*kept).min(seen);
            }
            best
        })
    }

    fn between(&self, from: Stage, to: Stage) -> u64 {
        self.stage_ns[to as usize].saturating_sub(self.stage_ns[from as usize])
    }

    pub fn read_ns(&self) -> u64 {
        self.stage_ns[Stage::Read as usize]
    }
    pub fn lex_ns(&self) -> u64 {
        self.between(Stage::Read, Stage::Lex)
    }
    /// Parsing without the lexing it repeats.
    pub fn parse_ns(&self) -> u64 {
        self.between(Stage::Lex, Stage::Parse)
    }
    pub fn fingerprint_ns(&self) -> u64 {
        self.between(Stage::Parse, Stage::Fingerprint)
    }
    pub fn walk_ns(&self) -> u64 {
        self.between(Stage::DistinctParse, Stage::Walk)
    }
    pub fn fragments_ns(&self) -> u64 {
        self.between(Stage::Walk, Stage::Fragments)
    }
    pub fn structural_ns(&self) -> u64 {
        self.between(Stage::Fragments, Stage::Structural)
    }
    /// Walk + fragments + structural + the remainder of `QueryAnalysis::of_ref`.
    pub fn analyze_ns(&self) -> u64 {
        self.between(Stage::DistinctParse, Stage::Analyze)
    }
    pub fn fold_ns(&self) -> u64 {
        self.stage_ns[Stage::Fold as usize]
    }
    pub fn render_ns(&self) -> u64 {
        self.stage_ns[Stage::Render as usize]
    }

    /// Everything the replay attributes to a named layer.
    pub fn attributed_ns(&self) -> u64 {
        self.stage_ns[Stage::Fingerprint as usize]
            + self.analyze_ns()
            + self.fold_ns()
            + self.render_ns()
    }
}

/// Streams every entry of every log through `each(log index, position,
/// entry)`, batch by batch like the engine; returns the wall time.
fn stream_entries(logs: &[LogTruth], mut each: impl FnMut(usize, u64, &str)) -> io::Result<u64> {
    let start = Instant::now();
    let mut batch: Vec<String> = Vec::with_capacity(BATCH);
    for (index, log) in logs.iter().enumerate() {
        let mut reader = FileLogReader::open(log.label.clone(), &log.path)?;
        let mut position = 0u64;
        loop {
            batch.clear();
            if reader.read_batch(&mut batch, BATCH)? == 0 {
                break;
            }
            for entry in &batch {
                each(index, position, entry);
                position += 1;
            }
        }
    }
    Ok(start.elapsed().as_nanos() as u64)
}

fn timed(mut work: impl FnMut()) -> u64 {
    let start = Instant::now();
    work();
    start.elapsed().as_nanos() as u64
}

/// Runs the stages once. Per-entry layers (read, lex, parse, fingerprint)
/// are full passes over the files; per-distinct layers (walk, fragments,
/// structural, the whole analysis) are passes over the first occurrences
/// only, each on top of re-parsing them, so on a duplicate-heavy corpus
/// their small cost is not lost in the noise of a full pass.
pub fn replay(logs: &[LogTruth]) -> io::Result<Replay> {
    let mut out = Replay::default();
    let mut arena = Arena::new();

    let mut stage_ns = [0u64; STAGES];

    // Stage 1: read.
    stage_ns[Stage::Read as usize] = stream_entries(logs, |_, _, entry| {
        out.entries += 1;
        out.bytes += entry.len() as u64 + 1;
    })?;

    // Stage 2: read + lex.
    let mut tokens = 0u64;
    stage_ns[Stage::Lex as usize] = stream_entries(logs, |_, _, entry| {
        arena.reset();
        if let Ok(spanned) = lexer::tokenize_in(entry, &arena) {
            tokens += spanned.len() as u64;
        }
    })?;
    out.tokens = tokens;

    // Stage 3: read + parse (which lexes).
    let mut arena_bytes = 0u64;
    let mut valid = 0u64;
    stage_ns[Stage::Parse as usize] = stream_entries(logs, |_, _, entry| {
        arena.reset();
        if parse_query_in(entry, &arena).is_ok() {
            valid += 1;
        }
        arena_bytes += arena.used_bytes() as u64;
    })?;
    out.valid = valid;
    out.arena_bytes = arena_bytes;

    // Stage 4: read + parse + fingerprint + per-log occurrence maps. The
    // first occurrence of each canonical form per log is kept as text (the
    // engine keeps its analysis): O(distinct), like the engine.
    let mut occurrences: Vec<HashMap<u128, u64>> = vec![HashMap::new(); logs.len()];
    let mut tallies: Vec<ErrorTally> = vec![ErrorTally::default(); logs.len()];
    let mut firsts: Vec<(u128, String)> = Vec::new();
    let mut seen: HashMap<u128, ()> = HashMap::new();
    stage_ns[Stage::Fingerprint as usize] = stream_entries(logs, |log, position, entry| {
        arena.reset();
        match parse_query_in(entry, &arena) {
            Ok(query) => {
                let fingerprint = canonical_fingerprint_of_ref(&query);
                *occurrences[log].entry(fingerprint).or_insert(0) += 1;
                if seen.insert(fingerprint, ()).is_none() {
                    firsts.push((fingerprint, entry.to_string()));
                }
            }
            Err(error) => tallies[log].record(error.kind, position),
        }
    })?;
    out.distinct = firsts.len() as u64;

    // Distinct-only stages, each cumulative on top of the re-parse.
    let mut interner = Interner::new();
    let mut over_firsts =
        |work: &mut dyn FnMut(&sparqlog::parser::ast_ref::Query<'_>, &mut Interner)| {
            timed(|| {
                for (_, text) in &firsts {
                    arena.reset();
                    if let Ok(query) = parse_query_in(text, &arena) {
                        work(&query, &mut interner);
                    }
                }
            })
        };
    stage_ns[Stage::DistinctParse as usize] = over_firsts(&mut |query, _| {
        std::hint::black_box(query);
    });
    stage_ns[Stage::Walk as usize] = over_firsts(&mut |query, interner| {
        std::hint::black_box(QueryWalkRef::of(query, interner));
    });
    stage_ns[Stage::Fragments as usize] = over_firsts(&mut |query, interner| {
        let walk = QueryWalkRef::of(query, interner);
        std::hint::black_box(classify_fragments_from_walk_ref(query, &walk));
    });
    stage_ns[Stage::Structural as usize] = over_firsts(&mut |query, interner| {
        let walk = QueryWalkRef::of(query, interner);
        let fragments = classify_fragments_from_walk_ref(query, &walk);
        std::hint::black_box(StructuralReport::from_walk_interned(
            fragments,
            walk.tree.as_ref(),
            interner,
        ));
    });
    let mut records: HashMap<u128, QueryAnalysis> = HashMap::with_capacity(firsts.len());
    let mut index = 0;
    stage_ns[Stage::Analyze as usize] = over_firsts(&mut |query, interner| {
        records.insert(firsts[index].0, QueryAnalysis::of_ref(query, interner));
        index += 1;
    });

    // Fold: one weighted add per distinct form per log (weight 1 on the
    // Unique population), then the "Total" row.
    let mut corpus = CorpusAnalysis::default();
    stage_ns[Stage::Fold as usize] = timed(|| {
        let mut combined = DatasetAnalysis {
            label: "Total".to_string(),
            ..DatasetAnalysis::default()
        };
        let mut datasets = Vec::with_capacity(logs.len());
        for ((log, map), errors) in logs.iter().zip(&occurrences).zip(&tallies) {
            let mut dataset = DatasetAnalysis {
                label: log.label.clone(),
                errors: errors.clone(),
                ..DatasetAnalysis::default()
            };
            let mut valid = 0;
            let mut bodyless = 0;
            for (fingerprint, &count) in map {
                let record = &records[fingerprint];
                dataset.add_times(record, 1);
                valid += count;
                if !record.features.has_body {
                    bodyless += count;
                }
            }
            dataset.counts = CorpusCounts {
                total: valid + errors.total(),
                valid,
                unique: map.len() as u64,
                bodyless,
            };
            combined.merge(&dataset);
            datasets.push(dataset);
        }
        corpus = CorpusAnalysis { datasets, combined };
    });
    stage_ns[Stage::Render as usize] = timed(|| out.report = report::full_report(&corpus));
    out.stage_ns = stage_ns;
    Ok(out)
}

// ---------------------------------------------------------------------------
// Shard, persist and identity probes.
// ---------------------------------------------------------------------------

/// Directory of the program's binaries: they are built into the same target
/// directory as this driver (test executables sit one level down, in
/// `deps/`).
pub fn program_dir() -> io::Result<PathBuf> {
    let exe = std::env::current_exe()?;
    let dir = exe
        .parent()
        .ok_or_else(|| other("executable has no directory"))?;
    Ok(if dir.ends_with("deps") {
        dir.parent().unwrap_or(dir).to_path_buf()
    } else {
        dir.to_path_buf()
    })
}

fn program(name: &str) -> io::Result<PathBuf> {
    let path = program_dir()?.join(name);
    if path.is_file() {
        Ok(path)
    } else {
        Err(other(format!(
            "{} not found — build the program first (`cargo build --release`, as benchmark/run.sh does)",
            path.display()
        )))
    }
}

fn worker_command() -> io::Result<WorkerCommand> {
    Ok(WorkerCommand::new(program("sparqlog-shard-worker")?))
}

/// Spawn → EOF of one worker process over `log` (an empty file measures the
/// bare process cost).
pub fn worker_round_trip(log: &LogTruth) -> io::Result<Duration> {
    let launch = WorkerLaunch {
        command: worker_command()?,
        shard: 0,
        population: POPULATION,
        worker_threads: None,
        heartbeat: None,
        recovery: RecoveryPolicy::Auto,
        logs: vec![AssignedLog {
            index: 0,
            label: log.label.clone(),
            path: log.path.clone(),
        }],
    };
    let start = Instant::now();
    launch.spawn().map_err(other)?.join(None).map_err(other)?;
    Ok(start.elapsed())
}

/// The files analysed by one worker process and merged by the coordinator:
/// the batch pass plus exactly one process boundary.
pub fn sharded_pass(logs: &[LogTruth]) -> io::Result<(Duration, String)> {
    let specs: Vec<LogSpec> = logs
        .iter()
        .map(|log| LogSpec::new(log.label.clone(), &log.path))
        .collect();
    let mut options = ShardOptions::new(worker_command()?);
    options.shards = 1;
    let start = Instant::now();
    let sharded = analyze_sharded(&specs, POPULATION, &options).map_err(other)?;
    let text = report::full_report(&sharded.corpus);
    Ok((start.elapsed(), text))
}

/// What the snapshot codec costs over one pass's per-log results.
#[derive(Debug, Default, Clone, Copy)]
pub struct CodecProbe {
    pub encode: Duration,
    pub decode: Duration,
    pub bytes: u64,
}

/// Encodes each log of `pass` as the worker does (`Frame::to_payload`, then
/// the checksummed stream) and decodes the stream as the coordinator does
/// (`read_snapshot`); checks one payload round-trips through
/// `Frame::from_payload`.
pub fn codec_round_trip(pass: &Pass) -> io::Result<CodecProbe> {
    let frames: Vec<Frame> = per_log_results(pass)
        .enumerate()
        .map(|(index, log)| {
            Frame::from(LogFrame {
                index: index as u64,
                summary: log.summary,
                analysis: log.analysis,
            })
        })
        .collect();
    let start = Instant::now();
    let payloads: Vec<Vec<u8>> = frames.iter().map(Frame::to_payload).collect();
    let encode = start.elapsed();

    let mut stream = Vec::new();
    write_stream_header(&mut stream)?;
    for frame in &frames {
        frame.write_checked_to(&mut stream)?;
    }
    Frame::Epilogue(EpilogueFrame {
        log_frames: frames.len() as u64,
        ..EpilogueFrame::default()
    })
    .write_checked_to(&mut stream)?;
    let start = Instant::now();
    let (snapshot, bytes) = read_snapshot(stream.as_slice()).map_err(other)?;
    let decode = start.elapsed();

    let first = Frame::from_payload(&payloads[0], 0).map_err(other)?;
    if first != frames[0] || snapshot.logs.len() != frames.len() {
        return Err(other("snapshot codec did not round-trip"));
    }
    Ok(CodecProbe {
        encode,
        decode,
        bytes,
    })
}

fn per_log_results(pass: &Pass) -> impl Iterator<Item = PersistedLog> + '_ {
    pass.fused
        .summaries
        .iter()
        .zip(&pass.fused.corpus.datasets)
        .map(|(summary, analysis)| PersistedLog {
            summary: summary.clone(),
            analysis: analysis.clone(),
        })
}

/// What the snapshot store costs over one pass's per-log results.
#[derive(Debug, Default, Clone)]
pub struct StoreProbe {
    /// `record_snapshot` + `commit` (fsync included), one sample per log.
    pub commits: Vec<Duration>,
    /// Mean `get` + clone of a persisted log — what a store hit costs.
    pub get: Duration,
    /// Re-opening the populated store (recovery scan + index rebuild).
    pub open: Duration,
    pub file_bytes: u64,
}

pub fn store_round_trip(pass: &Pass, logs: &[LogTruth], path: &Path) -> io::Result<StoreProbe> {
    let mut probe = StoreProbe::default();
    let mut keys = Vec::with_capacity(logs.len());
    {
        let (mut store, _) = SnapshotStore::open(path)?;
        for (log, result) in logs.iter().zip(per_log_results(pass)) {
            let key = file_identity(POPULATION, &log.label, &log.path)?;
            let start = Instant::now();
            store.record_snapshot(key, &result)?;
            store.commit()?;
            probe.commits.push(start.elapsed());
            keys.push(key);
        }
        probe.file_bytes = store.total_bytes();
    }
    let start = Instant::now();
    let (store, recovery) = SnapshotStore::open(path)?;
    probe.open = start.elapsed();
    if !recovery.is_clean() || store.snapshots() != keys.len() {
        return Err(other(format!("store did not reopen clean: {recovery}")));
    }
    const ROUNDS: u32 = 20;
    let start = Instant::now();
    for _ in 0..ROUNDS {
        for key in &keys {
            std::hint::black_box(store.get(*key).cloned());
        }
    }
    probe.get = start.elapsed() / (ROUNDS * keys.len().max(1) as u32);
    Ok(probe)
}

/// Hashes every log's identity the way submit does; returns (bytes, time).
pub fn identity_pass(logs: &[LogTruth]) -> io::Result<(u64, Duration)> {
    let start = Instant::now();
    for log in logs {
        std::hint::black_box(file_identity(POPULATION, &log.label, &log.path)?);
    }
    Ok((logs.iter().map(|log| log.bytes).sum(), start.elapsed()))
}

// ---------------------------------------------------------------------------
// The daemon and its client.
// ---------------------------------------------------------------------------

/// A running `sparqlog-serve` at its defaults on a Unix socket with a
/// snapshot store, killed when dropped.
#[derive(Debug)]
pub struct Daemon {
    guard: ChildGuard,
    addr: ServeAddr,
    /// Daemon spawn → first Pong.
    pub ready: Duration,
}

impl Daemon {
    pub fn start(socket: &Path, store: &Path) -> io::Result<Daemon> {
        let mut command = Command::new(program("sparqlog-serve")?);
        command.arg("--unix").arg(socket).arg("--store").arg(store);
        let start = Instant::now();
        let mut daemon = Daemon {
            guard: ChildGuard::spawn(&mut command)?,
            addr: ServeAddr::Unix(socket.to_path_buf()),
            ready: Duration::ZERO,
        };
        daemon.connect()?.ping().map_err(other)?;
        daemon.ready = start.elapsed();
        Ok(daemon)
    }

    pub fn pid(&self) -> u32 {
        self.guard.pid()
    }

    /// A fresh connection; rides out the start-up window without sleeping a
    /// fixed amount.
    pub fn connect(&mut self) -> io::Result<Client> {
        let retry = ConnectRetry {
            attempts: 5000,
            backoff: Duration::from_millis(1),
            backoff_cap: Duration::from_millis(2),
        };
        let client = Client::connect_with_retry(&self.addr, &retry).map_err(other);
        if client.is_err() && self.guard.exited() {
            return Err(other("sparqlog-serve exited during start-up"));
        }
        client
    }

    /// SIGTERM and wait: the daemon drains, flushes its store and exits.
    pub fn stop(self) -> io::Result<()> {
        if self.guard.terminate(Duration::from_secs(10)) {
            Ok(())
        } else {
            Err(other(
                "sparqlog-serve ignored SIGTERM for 10 s and was killed",
            ))
        }
    }
}

/// Submits `logs` as one job; returns the job id.
pub fn submit(client: &mut Client, logs: &[LogTruth]) -> Result<u64, ClientError> {
    let pairs = logs
        .iter()
        .map(|log| (log.label.clone(), log.path.to_string_lossy().into_owned()))
        .collect();
    client
        .submit(POPULATION, RecoveryPolicy::Auto, pairs)
        .map(|(job, _)| job)
}

/// Waits for the job to settle; an unfinished or failed job is an error.
/// Returns the worker restarts the job needed.
pub fn settle(client: &mut Client, job: u64) -> Result<u64, ClientError> {
    let status = client.wait_settled(job, UNIT_TIMEOUT)?;
    match status.phase {
        JobPhase::Complete => Ok(status.restarts),
        JobPhase::Running => Err(ClientError::Server(format!(
            "job {job} still running after {UNIT_TIMEOUT:?}"
        ))),
        JobPhase::Failed => Err(ClientError::Server(format!(
            "job {job} failed: {}",
            status.error
        ))),
    }
}

/// Fetches the job's full report text.
pub fn fetch(client: &mut Client, job: u64) -> Result<String, ClientError> {
    let report = client.report(job, true)?;
    if report.complete {
        Ok(report.text)
    } else {
        Err(ClientError::Server(format!("job {job}: report incomplete")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{Generator, Mix, Profile};

    #[test]
    fn the_replay_rebuilds_the_engines_report() {
        let dir = crate::sys::TempDir::new("layers-replay").unwrap();
        let profile = Profile {
            occurrences: 4,
            perturbed_per_mille: 300,
            garbage_per_mille: 50,
            mix: Mix::Rich,
        };
        let mut generator = Generator::new(3);
        let logs: Vec<LogTruth> = (0..3)
            .map(|i| {
                generator
                    .write_log(
                        &format!("log{i}"),
                        &dir.path().join(format!("{i}.log")),
                        400,
                        &profile,
                    )
                    .unwrap()
            })
            .collect();
        let pass = analyze_and_render(&logs).unwrap();
        let replayed = replay(&logs).unwrap();
        assert_eq!(replayed.report, pass.report);
        assert_eq!(replayed.entries, 1200);
        assert_eq!(replayed.valid, logs.iter().map(|l| l.valid).sum::<u64>());
        assert!(replayed.tokens > replayed.entries);
        assert!(replayed.attributed_ns() > 0);

        let codec = codec_round_trip(&pass).unwrap();
        assert!(codec.bytes > 0);
        let store = store_round_trip(&pass, &logs, &dir.path().join("probe.store")).unwrap();
        assert_eq!(store.commits.len(), 3);
        assert!(store.file_bytes > 0);
        assert_eq!(
            identity_pass(&logs).unwrap().0,
            logs.iter().map(|l| l.bytes).sum::<u64>()
        );
    }
}
