//! Setup shared by the integration tests that write logs to disk, spawn
//! worker processes or run the daemon: the scratch directory, the corpus
//! writers, the fused reference and the served-daemon launcher. Each test
//! binary pulls it in with `mod common;` and uses what it needs.
#![allow(dead_code)]

use sparqlog::core::corpus::{
    analyze_streams_with, workers_override, FileLogReader, FusedAnalysis, FusedOptions, LogReader,
    MemoryLogReader, RawLog,
};
use sparqlog::core::Population;
use sparqlog::serve::{ServeAddr, ServeConfig, Server, ServerHandle, SupervisorConfig};
use sparqlog::shard::{LogSpec, WorkerCommand};
use sparqlog::synth::{generate_single_day_log, Dataset};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::thread::JoinHandle;
use std::time::Duration;

/// The worker binary built alongside the tests (same package, same profile).
pub const WORKER: &str = env!("CARGO_BIN_EXE_sparqlog-shard-worker");

/// How long to wait for jobs that should succeed (generous: CI machines
/// are slow and single-core).
pub const SETTLE: Duration = Duration::from_secs(300);

/// A scratch directory named after the test binary, removed on drop.
pub struct Scratch(PathBuf);

impl Scratch {
    pub fn new(name: &str) -> Scratch {
        let dir = std::env::temp_dir().join(format!(
            "sparqlog-{}-test-{}-{name}",
            env!("CARGO_CRATE_NAME"),
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        Scratch(dir)
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The datasets of the three-log corpora.
pub const THREE_DATASETS: [Dataset; 3] = [Dataset::DBpedia15, Dataset::WikiData17, Dataset::BioP13];

/// One synthesized day log of `entries` entries per dataset (the `i`-th
/// seeded `seed + i`), each tiled `tiles` times, with the first log's first
/// `head` entries appended to the last: cross-log duplicates, which a
/// partition counted twice would shift in the Unique population.
pub fn tiled_day_logs(
    datasets: &[Dataset],
    entries: u64,
    seed: u64,
    tiles: usize,
    head: usize,
) -> Vec<RawLog> {
    let mut raw: Vec<RawLog> = datasets
        .iter()
        .enumerate()
        .map(|(i, dataset)| {
            let day = generate_single_day_log(*dataset, entries, seed + i as u64);
            RawLog::new(day.dataset.label(), vec![day.entries; tiles].concat())
        })
        .collect();
    let head: Vec<String> = raw[0].entries.iter().take(head).cloned().collect();
    raw.last_mut()
        .expect("at least one log")
        .entries
        .extend(head);
    raw
}

/// The fixed duplicate-heavy in-memory corpus: three day logs of 80
/// entries, each tiled three times so every canonical form occurs at least
/// three times, with cross-log duplicates.
pub fn duplicate_heavy_corpus() -> Vec<RawLog> {
    tiled_day_logs(&THREE_DATASETS, 80, 400, 3, 30)
}

/// One in-memory reader per log, over a copy of its entries.
pub fn memory_readers(logs: &[RawLog]) -> Vec<Box<dyn LogReader>> {
    logs.iter()
        .map(|log| {
            Box::new(MemoryLogReader::new(log.label.clone(), log.entries.clone()))
                as Box<dyn LogReader>
        })
        .collect()
}

/// Writes each log to `dir/{index:02}.log`, one entry per line.
pub fn write_logs(dir: &Path, logs: &[RawLog]) -> Vec<LogSpec> {
    logs.iter()
        .enumerate()
        .map(|(index, log)| {
            let path = dir.join(format!("{index:02}.log"));
            let mut file =
                std::io::BufWriter::new(std::fs::File::create(&path).expect("create log file"));
            for entry in &log.entries {
                assert!(!entry.contains('\n'), "synthesized entries are single-line");
                writeln!(file, "{entry}").expect("write log line");
            }
            file.flush().expect("flush log file");
            LogSpec::new(log.label.clone(), path)
        })
        .collect()
}

/// One file reader per on-disk log.
pub fn readers(logs: &[LogSpec]) -> Vec<Box<dyn LogReader>> {
    logs.iter()
        .map(|log| {
            Box::new(FileLogReader::open(log.label.clone(), &log.path).expect("open log"))
                as Box<dyn LogReader>
        })
        .collect()
}

/// The single-process fused reference over the same on-disk files.
pub fn fused_reference(logs: &[LogSpec], population: Population) -> FusedAnalysis {
    analyze_streams_with(readers(logs), population, FusedOptions::default())
        .expect("fused reference run")
}

/// A daemon config with two worker slots, `SPARQLOG_WORKERS` (else 2)
/// analysis threads per worker and a 10 ms first restart backoff.
pub fn serve_config(worker: WorkerCommand) -> ServeConfig {
    ServeConfig {
        supervisor: SupervisorConfig {
            worker,
            slots: 2,
            worker_threads: workers_override().unwrap_or(2),
            backoff: Duration::from_millis(10),
            ..SupervisorConfig::default()
        },
        ..ServeConfig::default()
    }
}

/// Binds on an ephemeral port, runs the accept loop on a background
/// thread, and returns the resolved address plus control handles.
pub fn start_server(
    config: ServeConfig,
) -> (ServeAddr, ServerHandle, JoinHandle<std::io::Result<()>>) {
    start_server_on(config, &ServeAddr::Tcp("127.0.0.1:0".to_string()))
}

/// [`start_server`] on `addr`.
pub fn start_server_on(
    config: ServeConfig,
    addr: &ServeAddr,
) -> (ServeAddr, ServerHandle, JoinHandle<std::io::Result<()>>) {
    let server = Server::bind(config, addr).expect("bind");
    let addr = server.local_addr().expect("local addr");
    let handle = server.handle();
    let runner = std::thread::spawn(move || server.run());
    (addr, handle, runner)
}

/// The `(label, path)` pairs a client submits for `logs`.
pub fn submit_specs(logs: &[LogSpec]) -> Vec<(String, String)> {
    logs.iter()
        .map(|log| (log.label.clone(), log.path.display().to_string()))
        .collect()
}
