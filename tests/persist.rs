//! The persistent snapshot store, end to end: a daemon run with a store must
//! report byte-identically to the fused engine, warm-start settled jobs
//! after a restart and answer resubmissions as pure store hits (no worker
//! processes), again byte-identically, while a submission for the other
//! population misses; and a real `sparqlog-serve` process killed at each
//! injected point of the commit protocol must leave a store its successor
//! recovers and re-serves from, byte-identically once more.

use sparqlog::core::corpus::{analyze_streams_with, FileLogReader, FusedOptions, LogReader};
use sparqlog::core::report::full_report;
use sparqlog::core::PersistedLog;
use sparqlog::core::{Population, RecoveryPolicy};
use sparqlog::persist::{FaultMode, SnapshotStore, FAULT_ENV, FAULT_EXIT, FAULT_FLAG_ENV};
use sparqlog::serve::{
    Client, ClientError, ConnectRetry, JobPhase, ServeAddr, ServeConfig, Server, ServerHandle,
};
use sparqlog::shard::{LogSpec, WorkerCommand};
use sparqlog::synth::{generate_single_day_log, Dataset};
use std::io::{BufRead, BufReader, Write as _};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The worker binary built alongside this test (same package, profile).
const WORKER: &str = env!("CARGO_BIN_EXE_sparqlog-shard-worker");

/// The daemon binary built alongside this test.
const SERVE: &str = env!("CARGO_BIN_EXE_sparqlog-serve");

/// How long to wait for jobs that should succeed.
const SETTLE: Duration = Duration::from_secs(300);

/// A scratch directory removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(name: &str) -> Scratch {
        let dir = std::env::temp_dir().join(format!(
            "sparqlog-persist-test-{}-{name}",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        Scratch(dir)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Writes a duplicate-heavy three-log corpus (same shape as the serve
/// tests: synthesized day logs with cross-log duplicates).
fn write_corpus(dir: &Path) -> Vec<LogSpec> {
    let mut raw: Vec<(String, Vec<String>)> = Vec::new();
    for (i, dataset) in [Dataset::DBpedia15, Dataset::WikiData17, Dataset::BioP13]
        .iter()
        .enumerate()
    {
        let day = generate_single_day_log(*dataset, 40, 4200 + i as u64);
        let mut entries = Vec::new();
        for _ in 0..2 {
            entries.extend(day.entries.iter().cloned());
        }
        raw.push((day.dataset.label().to_string(), entries));
    }
    let head: Vec<String> = raw[0].1.iter().take(15).cloned().collect();
    raw[2].1.extend(head);

    raw.into_iter()
        .enumerate()
        .map(|(index, (label, entries))| {
            let path = dir.join(format!("{index:02}.log"));
            let mut file =
                std::io::BufWriter::new(std::fs::File::create(&path).expect("create log file"));
            for entry in &entries {
                writeln!(file, "{entry}").expect("write log line");
            }
            file.flush().expect("flush log file");
            LogSpec::new(label, path)
        })
        .collect()
}

/// The single-process fused reference over the same on-disk files.
fn fused_reference(logs: &[LogSpec], population: Population) -> String {
    let readers: Vec<Box<dyn LogReader>> = logs
        .iter()
        .map(|log| {
            Box::new(FileLogReader::open(log.label.clone(), &log.path).expect("open log"))
                as Box<dyn LogReader>
        })
        .collect();
    let fused = analyze_streams_with(readers, population, FusedOptions::default())
        .expect("fused reference run");
    full_report(&fused.corpus)
}

fn submit_specs(logs: &[LogSpec]) -> Vec<(String, String)> {
    logs.iter()
        .map(|log| (log.label.clone(), log.path.display().to_string()))
        .collect()
}

fn worker_threads() -> usize {
    std::env::var("SPARQLOG_WORKERS")
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(2)
}

fn store_config(store: &Path) -> ServeConfig {
    ServeConfig {
        worker: WorkerCommand::new(WORKER),
        worker_slots: 2,
        worker_threads: worker_threads(),
        heartbeat: Duration::from_millis(50),
        restart_backoff: Duration::from_millis(10),
        store_path: Some(store.to_path_buf()),
        ..ServeConfig::default()
    }
}

fn start_server(
    config: ServeConfig,
) -> (
    ServeAddr,
    ServerHandle,
    std::thread::JoinHandle<std::io::Result<()>>,
) {
    let server = Server::bind(config, &ServeAddr::Tcp("127.0.0.1:0".to_string())).expect("bind");
    let addr = server.local_addr().expect("local addr");
    let handle = server.handle();
    let runner = std::thread::spawn(move || server.run());
    (addr, handle, runner)
}

#[test]
fn daemon_restart_warm_starts_jobs_and_resubmission_spawns_no_workers() {
    let scratch = Scratch::new("daemon");
    let logs = write_corpus(scratch.path());
    let reference = fused_reference(&logs, Population::Unique);
    let store_path = scratch.path().join("daemon.sqps");

    // First daemon lifetime: cold analysis through real worker processes,
    // committed to the store at job completion.
    let (addr, handle, runner) = start_server(store_config(&store_path));
    let mut client = Client::connect(&addr).expect("connect");
    let (job, _) = client
        .submit(
            Population::Unique,
            RecoveryPolicy::Auto,
            submit_specs(&logs),
        )
        .expect("submit");
    let status = client.wait_settled(job, SETTLE).expect("wait");
    assert_eq!(status.phase, JobPhase::Complete, "{}", status.error);
    let report = client.report(job, true).expect("report");
    assert_eq!(report.text, reference);
    let lines = client.events(job).expect("events");
    assert!(
        lines.iter().any(|l| l.contains("event=store-commit")),
        "no store-commit event: {lines:?}"
    );
    drop(client);
    handle.stop();
    runner.join().expect("server thread").expect("server run");

    // Second lifetime on the same store: the settled job warm-starts (its
    // report is served with no worker ever spawned), and resubmitting the
    // same logs is pure store hits.
    let (addr, handle, runner) = start_server(store_config(&store_path));
    let mut client =
        Client::connect_with_retry(&addr, &ConnectRetry::default()).expect("reconnect");
    let warm_events = client.events(0).expect("events");
    assert!(
        warm_events
            .iter()
            .any(|l| l.contains("event=job-warm-start")),
        "no warm-start event: {warm_events:?}"
    );
    let warm = client.report(1, true).expect("warm report");
    assert!(warm.complete, "warm-started job must be complete");
    assert_eq!(warm.text, reference, "warm-started report diverged");

    let (rejob, _) = client
        .submit(
            Population::Unique,
            RecoveryPolicy::Auto,
            submit_specs(&logs),
        )
        .expect("resubmit");
    let status = client.wait_settled(rejob, SETTLE).expect("wait resubmit");
    assert_eq!(status.phase, JobPhase::Complete, "{}", status.error);
    let re = client.report(rejob, true).expect("resubmitted report");
    assert_eq!(re.text, reference, "store-hit report diverged");
    let lines = client.events(rejob).expect("events");
    assert_eq!(
        lines
            .iter()
            .filter(|l| l.contains("event=store-hit"))
            .count(),
        logs.len(),
        "{lines:?}"
    );
    assert!(
        !lines.iter().any(|l| l.contains("event=worker-start")),
        "a worker was spawned for fully-persisted logs: {lines:?}"
    );

    // The population is part of a log's identity: the same logs submitted
    // for the Valid population miss the warm store and are analysed afresh.
    let (valid_job, _) = client
        .submit(Population::Valid, RecoveryPolicy::Auto, submit_specs(&logs))
        .expect("submit valid");
    let status = client.wait_settled(valid_job, SETTLE).expect("wait valid");
    assert_eq!(status.phase, JobPhase::Complete, "{}", status.error);
    let valid = client.report(valid_job, true).expect("valid report");
    assert_eq!(valid.text, fused_reference(&logs, Population::Valid));
    let lines = client.events(valid_job).expect("events");
    assert!(
        !lines.iter().any(|l| l.contains("event=store-hit")),
        "a Valid-population job hit Unique-population snapshots: {lines:?}"
    );

    handle.stop();
    runner.join().expect("server thread").expect("server run");
}

#[test]
fn a_store_record_damaged_after_open_fails_its_report_and_the_daemon_keeps_serving() {
    let scratch = Scratch::new("damaged");
    let logs = write_corpus(scratch.path());
    let reference = fused_reference(&logs, Population::Unique);
    let store_path = scratch.path().join("damaged.sqps");
    let (addr, handle, runner) = start_server(store_config(&store_path));
    let mut client = Client::connect(&addr).expect("connect");
    let (job, _) = client
        .submit(
            Population::Unique,
            RecoveryPolicy::Auto,
            submit_specs(&logs),
        )
        .expect("submit");
    let status = client.wait_settled(job, SETTLE).expect("wait");
    assert_eq!(status.phase, JobPhase::Complete, "{}", status.error);
    // Committed, so the job keeps only keys and reports from the store.
    let holds = handle.jobs().with(job, |state| state.holds_logs());
    assert_eq!(holds, Some(false), "a committed job kept its logs");
    assert_eq!(client.report(job, true).expect("report").text, reference);

    // Flip a bit inside the first record (a snapshot: manifests are staged
    // after every partition's snapshot) behind the daemon's back.
    let mut bytes = std::fs::read(&store_path).expect("read store");
    bytes[8] ^= 1;
    std::fs::write(&store_path, &bytes).expect("damage store");
    match client.report(job, true) {
        Err(ClientError::Server(message)) => {
            assert!(message.contains("checksum"), "{message}")
        }
        other => panic!("a damaged record must answer an error, got {other:?}"),
    }

    // The daemon keeps serving: the job's status, and a resubmission that
    // re-analyses the damaged log and keeps its own results.
    client.ping().expect("ping after a failed report");
    let status = client.status(job).expect("status");
    assert_eq!(status.phase, JobPhase::Complete);
    let (rejob, _) = client
        .submit(
            Population::Unique,
            RecoveryPolicy::Auto,
            submit_specs(&logs),
        )
        .expect("resubmit");
    let status = client.wait_settled(rejob, SETTLE).expect("wait resubmit");
    assert_eq!(status.phase, JobPhase::Complete, "{}", status.error);
    assert_eq!(client.report(rejob, true).expect("report").text, reference);
    let lines = client.events(rejob).expect("events");
    for event in [
        "event=store-error",
        "event=worker-start",
        "event=store-skip",
    ] {
        assert!(
            lines.iter().any(|l| l.contains(event)),
            "no {event}: {lines:?}"
        );
    }
    assert_eq!(
        handle.jobs().with(rejob, |state| state.holds_logs()),
        Some(true)
    );
    drop(client);
    handle.stop();
    runner.join().expect("server thread").expect("server run");
}

#[test]
fn the_harness_get_adapter_decodes_once_and_matches_load() {
    let scratch = Scratch::new("get");
    let logs = write_corpus(scratch.path());
    let readers: Vec<Box<dyn LogReader>> = vec![Box::new(
        FileLogReader::open(logs[0].label.clone(), &logs[0].path).expect("open log"),
    )];
    let mut fused = analyze_streams_with(readers, Population::Unique, FusedOptions::default())
        .expect("analyse");
    let log = PersistedLog {
        summary: fused.summaries.remove(0),
        analysis: fused.corpus.datasets.remove(0),
    };
    let (mut store, _) = SnapshotStore::open(scratch.path().join("get.sqps")).expect("open");
    assert!(store.record_snapshot(7, &log).expect("record"));
    store.commit().expect("commit");
    assert!(store.get(8).is_none());
    let first = Arc::clone(store.get(7).expect("persisted"));
    assert_eq!(*first, log);
    assert_eq!(store.load(7).expect("load"), Some(log));
    assert!(Arc::ptr_eq(&first, store.get(7).expect("persisted")));
}

/// A spawned `sparqlog-serve` process plus the address it reported on
/// stderr; killed and reaped on drop.
struct Daemon {
    child: Child,
    addr: ServeAddr,
    /// Drains the daemon's remaining stderr so it never blocks on a full
    /// pipe; ends when the daemon does.
    drainer: Option<std::thread::JoinHandle<()>>,
}

impl Daemon {
    /// Spawns the daemon on an ephemeral port with the given store, journal
    /// file and environment, and waits for its "listening on tcp" line.
    fn spawn(store: &Path, journal: &Path, envs: &[(&str, String)]) -> Daemon {
        let mut child = Command::new(SERVE)
            .args(["--tcp", "127.0.0.1:0", "--heartbeat-ms", "50"])
            .arg("--store")
            .arg(store)
            .arg("--event-log")
            .arg(journal)
            .env("SPARQLOG_SHARD_WORKER", WORKER)
            .envs(envs.iter().map(|(key, value)| (key, value)))
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn sparqlog-serve");
        let mut lines = BufReader::new(child.stderr.take().expect("daemon stderr")).lines();
        let addr = lines.by_ref().find_map(|line| {
            let line = line.expect("read daemon stderr");
            let spec = line.split("listening on tcp ").nth(1)?;
            Some(ServeAddr::Tcp(spec.trim().to_string()))
        });
        let Some(addr) = addr else {
            let _ = child.kill();
            panic!("daemon exited before reporting its listen address");
        };
        let drainer = Some(std::thread::spawn(move || lines.for_each(drop)));
        Daemon {
            child,
            addr,
            drainer,
        }
    }

    /// Waits (bounded) for the daemon to exit on its own; returns the exit
    /// code, or `None` on timeout or death by signal.
    fn wait_exit(&mut self, timeout: Duration) -> Option<i32> {
        let deadline = Instant::now() + timeout;
        loop {
            if let Some(status) = self.child.try_wait().expect("poll daemon") {
                return status.code();
            }
            if Instant::now() >= deadline {
                return None;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(drainer) = self.drainer.take() {
            let _ = drainer.join();
        }
    }
}

/// One crash leg: a daemon dies at the injected point of its first commit,
/// and a second daemon on the damaged store recovers it and answers a
/// resubmission of the same logs. `Err` says which expectation broke.
fn crash_leg(
    mode: FaultMode,
    scratch: &Path,
    logs: &[LogSpec],
    reference: &str,
    journals: &[PathBuf; 2],
) -> Result<(), String> {
    let leg = mode.name();
    let store = scratch.join(format!("store-{leg}.sqps"));
    let flag = scratch.join(format!("flag-{leg}"));
    let retry = ConnectRetry {
        attempts: 50,
        backoff: Duration::from_millis(50),
        backoff_cap: Duration::from_millis(500),
    };
    let failed = |what: &str, error: &dyn std::fmt::Display| format!("{what}: {error}");

    // Daemon 1, under fault injection. The job runs on real worker
    // processes; the first store commit (at job completion) dies at the
    // injected point with the persist fault exit.
    let envs = [
        (FAULT_ENV, leg.to_string()),
        (FAULT_FLAG_ENV, flag.display().to_string()),
    ];
    let mut daemon = Daemon::spawn(&store, &journals[0], &envs);
    let mut client =
        Client::connect_with_retry(&daemon.addr, &retry).map_err(|e| failed("connect", &e))?;
    client
        .submit(Population::Unique, RecoveryPolicy::Auto, submit_specs(logs))
        .map_err(|e| failed("submit under fault", &e))?;
    drop(client); // the daemon dies mid-commit; don't race its last breath
    let exit = daemon.wait_exit(SETTLE);
    drop(daemon);
    if exit != Some(FAULT_EXIT) {
        return Err(format!(
            "daemon exited {exit:?}, expected the fault exit {FAULT_EXIT}"
        ));
    }

    // Daemon 2, a clean start on the damaged store. Recovery must not
    // panic, and a resubmission of the same logs settles to a
    // byte-identical report (store hits for whatever committed, fresh
    // workers for the rest).
    let daemon = Daemon::spawn(&store, &journals[1], &[]);
    let mut client =
        Client::connect_with_retry(&daemon.addr, &retry).map_err(|e| failed("reconnect", &e))?;
    let opened = client.events(0).map_err(|e| failed("events", &e))?;
    if !opened.iter().any(|line| line.contains("event=store-open")) {
        return Err("the restarted daemon logged no store-open event".to_string());
    }
    let (job, _) = client
        .submit(Population::Unique, RecoveryPolicy::Auto, submit_specs(logs))
        .map_err(|e| failed("resubmit after crash", &e))?;
    let status = client
        .wait_settled(job, SETTLE)
        .map_err(|e| failed("wait resubmitted", &e))?;
    if status.phase != JobPhase::Complete {
        return Err(format!("resubmitted job failed: {}", status.error));
    }
    let report = client
        .report(job, true)
        .map_err(|e| failed("report after recovery", &e))?;
    if report.text != reference {
        return Err(format!(
            "report differs from the fused engine's after recovery:\n{}",
            report.text
        ));
    }
    Ok(())
}

#[test]
fn a_daemon_killed_mid_commit_leaves_a_store_its_successor_recovers() {
    let scratch = Scratch::new("crash");
    let logs = write_corpus(scratch.path());
    let reference = fused_reference(&logs, Population::Unique);
    for mode in FaultMode::ALL {
        let leg = mode.name();
        let journals = [1, 2].map(|n| scratch.path().join(format!("events-{leg}-{n}.log")));
        if let Err(failure) = crash_leg(mode, scratch.path(), &logs, &reference, &journals) {
            let [crashed, restarted] =
                journals.map(|path| std::fs::read_to_string(path).unwrap_or_default());
            panic!(
                "{leg}: {failure}\n== crashed daemon ==\n{crashed}\n== restarted daemon ==\n{restarted}"
            );
        }
    }
}
