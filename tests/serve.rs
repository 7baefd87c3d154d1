//! The networked analysis service, exercised end-to-end over real sockets
//! and real worker processes: concurrent clients must read byte-identical
//! complete reports (equal to the single-process fused engine's), a slow
//! consumer must not stall other sessions, a graceful drain must finish
//! in-flight jobs while refusing new ones, and a worker that dies
//! mid-partition — by any of the six fault modes: `die`, `wrong-version`,
//! `truncate`, `abort-mid-stream`, a raw SIGKILL from outside, a
//! heartbeat-timeout stall — must be restarted and reassigned with no
//! double-counted occurrence in the Unique population. With a snapshot
//! store attached, a client that sees a job `Complete` must find its
//! completion commit already made, and two clients submitting overlapping
//! logs must not disturb each other.
//!
//! The CI determinism matrix pins `SPARQLOG_WORKERS` (analysis threads per
//! worker process); without it the tests pass `--workers 2`, except
//! `the_default_thread_budget_divides_the_cores_among_running_workers`,
//! which runs the daemon's own default: the cores divided among the
//! workers running when a partition is claimed.

use sparqlog::core::corpus::{analyze_streams_with, FileLogReader, FusedOptions, LogReader};
use sparqlog::core::report::full_report;
use sparqlog::core::{Population, RecoveryPolicy};
use sparqlog::persist::SnapshotStore;
use sparqlog::serve::protocol::{self, Request, Response};
use sparqlog::serve::{
    Client, ClientError, JobPhase, ServeAddr, ServeConfig, Server, ServerHandle, SlowConsumerPolicy,
};
use sparqlog::shard::codec::{write_stream_header, FrameReader};
use sparqlog::shard::{LogSpec, WorkerCommand};
use sparqlog::synth::{generate_single_day_log, Dataset};
use std::io::Write as _;
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// The worker binary built alongside this test (same package, same profile).
const WORKER: &str = env!("CARGO_BIN_EXE_sparqlog-shard-worker");

/// How long to wait for jobs that should succeed (generous: CI machines
/// are slow and single-core).
const SETTLE: Duration = Duration::from_secs(300);

/// A scratch directory removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(name: &str) -> Scratch {
        let dir =
            std::env::temp_dir().join(format!("sparqlog-serve-test-{}-{name}", std::process::id()));
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

/// Writes a duplicate-heavy corpus (three synthesized day logs, each tiled
/// three times, with cross-log duplicates) to one file per log.
fn write_corpus(dir: &Path) -> Vec<LogSpec> {
    let mut raw: Vec<(String, Vec<String>)> = Vec::new();
    for (i, dataset) in [Dataset::DBpedia15, Dataset::WikiData17, Dataset::BioP13]
        .iter()
        .enumerate()
    {
        let day = generate_single_day_log(*dataset, 60, 900 + i as u64);
        let mut entries = Vec::new();
        for _ in 0..3 {
            entries.extend(day.entries.iter().cloned());
        }
        raw.push((day.dataset.label().to_string(), entries));
    }
    // Cross-log duplicates: the first log's head reappears in the last log.
    // A reassigned partition that double-counted would shift the Unique
    // population here.
    let head: Vec<String> = raw[0].1.iter().take(20).cloned().collect();
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

/// `(partition, threads=)` of each `worker-start` in `job`'s journal,
/// sorted by partition.
fn worker_threads_started(handle: &ServerHandle, job: u64) -> Vec<(u64, u64)> {
    let records = handle.events().records_for_job(job);
    let starts = records.iter().filter(|r| r.event() == "worker-start");
    let mut started: Vec<_> = starts
        .map(|r| (r.u64("partition").unwrap(), r.u64("threads").unwrap()))
        .collect();
    started.sort_unstable();
    started
}

fn worker_threads() -> usize {
    std::env::var("SPARQLOG_WORKERS")
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(2)
}

fn base_config(worker: WorkerCommand) -> ServeConfig {
    ServeConfig {
        worker,
        worker_slots: 2,
        worker_threads: worker_threads(),
        heartbeat: Duration::from_millis(50),
        restart_backoff: Duration::from_millis(10),
        ..ServeConfig::default()
    }
}

/// Binds on an ephemeral port, runs the accept loop on a background
/// thread, and returns the resolved address plus control handles.
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

fn submit_specs(logs: &[LogSpec]) -> Vec<(String, String)> {
    logs.iter()
        .map(|log| (log.label.clone(), log.path.display().to_string()))
        .collect()
}

#[test]
fn concurrent_clients_read_byte_identical_complete_reports() {
    let scratch = Scratch::new("concurrent");
    let logs = write_corpus(scratch.path());
    let reference = fused_reference(&logs, Population::Unique);
    let (addr, handle, runner) = start_server(base_config(WorkerCommand::new(WORKER)));

    let mut client = Client::connect(&addr).expect("connect");
    let (draining, jobs) = client.ping().expect("ping");
    assert!(!draining);
    assert_eq!(jobs, 0);
    let (job, partitions) = client
        .submit(
            Population::Unique,
            RecoveryPolicy::Auto,
            submit_specs(&logs),
        )
        .expect("submit");
    assert_eq!(partitions, logs.len() as u64);
    let status = client.wait_settled(job, SETTLE).expect("wait");
    assert_eq!(status.phase, JobPhase::Complete, "{}", status.error);
    assert_eq!(status.completed, logs.len() as u64);
    assert_eq!(status.restarts, 0);
    // Without a store the job's slots are its only copy: it keeps them.
    let holds = handle.jobs().with(job, |state| state.holds_logs());
    assert_eq!(holds, Some(true));

    // Several fresh sessions read the complete report concurrently; every
    // copy must be byte-identical to the fused engine's.
    let readers: Vec<_> = (0..3)
        .map(|_| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(&addr).expect("connect");
                client.report(job, true).expect("report")
            })
        })
        .collect();
    for reader in readers {
        let report = reader.join().expect("reader thread");
        assert!(report.complete);
        assert_eq!(report.text, reference);
    }

    // The event log is queryable over the wire and names worker pids.
    let lines = client.events(job).expect("events");
    assert!(
        lines
            .iter()
            .any(|l| l.contains("event=worker-start") && l.contains("pid=")),
        "{lines:?}"
    );
    assert!(
        lines.iter().any(|l| l.contains("event=job-complete")),
        "{lines:?}"
    );

    handle.stop();
    runner.join().expect("server thread").expect("server run");
}

#[test]
fn a_slow_consumer_blocks_only_its_own_session() {
    // No jobs involved: the outbox path is exercised with pipelined pings.
    let config = ServeConfig {
        outbox_frames: 2,
        writer_pause: Duration::from_millis(50),
        slow_policy: SlowConsumerPolicy::Block,
        ..base_config(WorkerCommand::new(WORKER))
    };
    let (addr, handle, runner) = start_server(config);
    let ServeAddr::Tcp(spec) = &addr else {
        unreachable!()
    };

    // The slow session pipelines 40 requests without reading a single
    // response: its 2-frame outbox fills and, under the Block policy, its
    // reader thread stalls. Draining takes >= 40 * 50ms = 2s.
    let mut slow = TcpStream::connect(spec.as_str()).expect("connect slow");
    write_stream_header(&mut slow).expect("header");
    for _ in 0..40 {
        protocol::write_request(&mut slow, &Request::Ping).expect("pipelined ping");
    }

    // A healthy session served in the meantime must not feel it.
    let started = Instant::now();
    let mut healthy = Client::connect(&addr).expect("connect healthy");
    healthy.ping().expect("healthy ping");
    let latency = started.elapsed();
    assert!(
        latency < Duration::from_millis(1500),
        "healthy session stalled behind the slow one: {latency:?}"
    );

    // The Block policy loses nothing: all 40 responses eventually arrive.
    let mut frames = FrameReader::new(slow.try_clone().expect("clone"));
    frames.read_header().expect("server header");
    for i in 0..40 {
        let response = protocol::read_response(&mut frames)
            .expect("read response")
            .unwrap_or_else(|| panic!("stream ended after {i} responses"));
        assert!(matches!(response, Response::Pong { .. }));
    }

    handle.stop();
    runner.join().expect("server thread").expect("server run");
}

#[test]
fn a_slow_consumer_is_shed_under_the_shed_policy() {
    let config = ServeConfig {
        outbox_frames: 1,
        writer_pause: Duration::from_millis(100),
        slow_policy: SlowConsumerPolicy::Shed,
        ..base_config(WorkerCommand::new(WORKER))
    };
    let (addr, handle, runner) = start_server(config);
    let ServeAddr::Tcp(spec) = &addr else {
        unreachable!()
    };

    let mut slow = TcpStream::connect(spec.as_str()).expect("connect slow");
    write_stream_header(&mut slow).expect("header");
    for _ in 0..10 {
        protocol::write_request(&mut slow, &Request::Ping).expect("pipelined ping");
    }
    // The connection must close early: the session is shed, not served.
    // The shutdown may even beat the server's header onto the wire, so a
    // failed header read counts as zero responses, not a test failure.
    let mut frames = FrameReader::new(slow.try_clone().expect("clone"));
    let mut answered = 0;
    if frames.read_header().is_ok() {
        while let Ok(Some(_)) = protocol::read_response(&mut frames) {
            answered += 1;
        }
    }
    assert!(
        answered < 10,
        "shed session still got all {answered} responses"
    );
    let deadline = Instant::now() + Duration::from_secs(10);
    while !handle
        .events()
        .snapshot()
        .iter()
        .any(|l| l.contains("event=outbox-shed"))
    {
        assert!(Instant::now() < deadline, "no outbox-shed event logged");
        std::thread::sleep(Duration::from_millis(20));
    }

    handle.stop();
    runner.join().expect("server thread").expect("server run");
}

#[test]
fn graceful_drain_finishes_in_flight_jobs_and_rejects_new_ones() {
    let scratch = Scratch::new("drain");
    let logs = write_corpus(scratch.path());
    let reference = fused_reference(&logs, Population::Valid);
    let (addr, handle, runner) = start_server(base_config(WorkerCommand::new(WORKER)));

    let mut client = Client::connect(&addr).expect("connect");
    let (job, _) = client
        .submit(Population::Valid, RecoveryPolicy::Auto, submit_specs(&logs))
        .expect("submit");
    client.drain().expect("drain");
    let (draining, _) = client.ping().expect("ping");
    assert!(draining);

    // New submissions are refused — on this session and on fresh ones.
    let rejected = client.submit(Population::Valid, RecoveryPolicy::Auto, submit_specs(&logs));
    assert!(
        matches!(&rejected, Err(ClientError::Server(message)) if message.contains("draining")),
        "{rejected:?}"
    );
    let mut late = Client::connect(&addr).expect("late connect");
    assert!(late
        .submit(
            Population::Unique,
            RecoveryPolicy::Auto,
            submit_specs(&logs)
        )
        .is_err());

    // The in-flight job still runs to completion and serves its report.
    let status = client.wait_settled(job, SETTLE).expect("wait");
    assert_eq!(status.phase, JobPhase::Complete, "{}", status.error);
    let report = client.report(job, true).expect("report");
    assert!(report.complete);
    assert_eq!(report.text, reference);

    handle.stop();
    runner.join().expect("server thread").expect("server run");
}

#[test]
fn a_killed_worker_is_restarted_and_nothing_is_double_counted() {
    // `die` kills the worker before its first frame; `wrong-version` and
    // `truncate` make it write a stream the decoder must reject (a bad
    // version byte, a frame cut short); `abort-mid-stream` kills it after
    // it has already flushed a complete log frame — the stronger case for
    // the no-double-count guarantee, since a careless merge of the partial
    // snapshot plus the restarted worker's full one would fold the first
    // log's occurrences twice.
    for fault in ["die", "wrong-version", "truncate", "abort-mid-stream"] {
        let scratch = Scratch::new(&format!("kill-{fault}"));
        let logs = write_corpus(scratch.path());
        let reference = fused_reference(&logs, Population::Unique);
        let flag = scratch.path().join("fault.flag");
        let worker = WorkerCommand::new(WORKER)
            .env("SPARQLOG_SHARD_FAULT", fault)
            .env("SPARQLOG_SHARD_FAULT_SHARD", "1")
            .env("SPARQLOG_SHARD_FAULT_FLAG", flag.display().to_string());
        let (addr, handle, runner) = start_server(base_config(worker));

        let mut client = Client::connect(&addr).expect("connect");
        let (job, _) = client
            .submit(
                Population::Unique,
                RecoveryPolicy::Auto,
                submit_specs(&logs),
            )
            .expect("submit");
        let status = client.wait_settled(job, SETTLE).expect("wait");
        assert_eq!(
            status.phase,
            JobPhase::Complete,
            "{fault}: {}",
            status.error
        );
        assert!(
            status.restarts >= 1,
            "{fault}: the fault never fired (restarts = 0)"
        );
        let report = client.report(job, true).expect("report");
        assert!(report.complete);
        assert_eq!(
            report.text, reference,
            "{fault}: report diverged after worker restart"
        );

        let lines = client.events(job).expect("events");
        assert!(
            lines.iter().any(|l| l.contains("event=worker-death")),
            "{fault}: {lines:?}"
        );
        assert!(
            lines
                .iter()
                .any(|l| l.contains("event=partition-recovered") && l.contains("latency_ms=")),
            "{fault}: {lines:?}"
        );

        handle.stop();
        runner.join().expect("server thread").expect("server run");
    }
}

#[test]
fn a_worker_sigkilled_from_outside_is_restarted_and_recovered() {
    // The delay fault holds partition 0's first worker mid-stream, its
    // heartbeats still flowing; the test reads that worker's pid from the
    // journal and SIGKILLs it from outside, like an OOM killer would. The
    // supervisor sees only a pipe that ends.
    let scratch = Scratch::new("sigkill");
    let logs = write_corpus(scratch.path());
    let reference = fused_reference(&logs, Population::Unique);
    let flag = scratch.path().join("fault.flag");
    let worker = WorkerCommand::new(WORKER)
        .env("SPARQLOG_SHARD_FAULT", "delay")
        .env("SPARQLOG_SHARD_FAULT_SHARD", "0")
        .env("SPARQLOG_SHARD_FAULT_DELAY_MS", "30000")
        .env("SPARQLOG_SHARD_FAULT_FLAG", flag.display().to_string());
    let (addr, handle, runner) = start_server(base_config(worker));

    let mut client = Client::connect(&addr).expect("connect");
    let (job, _) = client
        .submit(
            Population::Unique,
            RecoveryPolicy::Auto,
            submit_specs(&logs),
        )
        .expect("submit");

    let deadline = Instant::now() + SETTLE;
    let pid = loop {
        // Typed journal access: match on parsed fields, not on the event
        // line's wording.
        let pid = handle.events().records().iter().find_map(|record| {
            (record.event() == "worker-start"
                && record.u64("partition") == Some(0)
                && record.u64("attempt") == Some(0))
            .then(|| record.u64("pid"))
            .flatten()
        });
        if let Some(pid) = pid {
            break pid;
        }
        assert!(Instant::now() < deadline, "partition 0 never started");
        std::thread::sleep(Duration::from_millis(10));
    };
    let killed = std::process::Command::new("kill")
        .args(["-9", &pid.to_string()])
        .status()
        .expect("run kill");
    assert!(killed.success(), "kill -9 {pid}: {killed}");

    let status = client.wait_settled(job, SETTLE).expect("wait");
    assert_eq!(status.phase, JobPhase::Complete, "{}", status.error);
    assert!(status.restarts >= 1, "the killed worker was never replaced");
    let report = client.report(job, true).expect("report");
    assert!(report.complete);
    assert_eq!(report.text, reference, "report diverged after the SIGKILL");

    let lines = client.events(job).expect("events");
    assert!(
        lines.iter().any(|l| l.contains("event=worker-death")),
        "{lines:?}"
    );
    assert!(
        lines
            .iter()
            .any(|l| l.contains("event=partition-recovered") && l.contains("latency_ms=")),
        "{lines:?}"
    );

    handle.stop();
    runner.join().expect("server thread").expect("server run");
}

#[test]
fn heartbeats_keep_a_slow_but_alive_worker_from_being_killed() {
    // The delayed worker goes quiet on log frames for three times the
    // stall timeout — but its heartbeat thread keeps beating, so the
    // supervisor must NOT kill it. This is the test that heartbeats
    // actually feed the activity clock.
    let scratch = Scratch::new("delay");
    let logs = write_corpus(scratch.path());
    let reference = fused_reference(&logs, Population::Unique);
    let flag = scratch.path().join("fault.flag");
    let worker = WorkerCommand::new(WORKER)
        .env("SPARQLOG_SHARD_FAULT", "delay")
        .env("SPARQLOG_SHARD_FAULT_SHARD", "0")
        .env("SPARQLOG_SHARD_FAULT_DELAY_MS", "1500")
        .env("SPARQLOG_SHARD_FAULT_FLAG", flag.display().to_string());
    let config = ServeConfig {
        stall_timeout: Some(Duration::from_millis(500)),
        ..base_config(worker)
    };
    let (addr, handle, runner) = start_server(config);

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
    assert_eq!(
        status.restarts, 0,
        "a heartbeating worker was wrongly declared dead"
    );
    let report = client.report(job, true).expect("report");
    assert_eq!(report.text, reference);

    handle.stop();
    runner.join().expect("server thread").expect("server run");
}

#[test]
fn a_stalled_worker_is_killed_by_the_heartbeat_timeout_and_recovered() {
    // The stalling worker writes its header and then nothing — no frames,
    // no heartbeats. Only the supervisor's stall timeout can detect it;
    // pipe EOF never comes.
    let scratch = Scratch::new("stall");
    let logs = write_corpus(scratch.path());
    let reference = fused_reference(&logs, Population::Unique);
    let flag = scratch.path().join("fault.flag");
    let worker = WorkerCommand::new(WORKER)
        .env("SPARQLOG_SHARD_FAULT", "stall")
        .env("SPARQLOG_SHARD_FAULT_SHARD", "0")
        .env("SPARQLOG_SHARD_FAULT_FLAG", flag.display().to_string());
    let config = ServeConfig {
        stall_timeout: Some(Duration::from_millis(500)),
        ..base_config(worker)
    };
    let (addr, handle, runner) = start_server(config);

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
    assert!(status.restarts >= 1, "the stall never fired");
    let report = client.report(job, true).expect("report");
    assert_eq!(report.text, reference);

    let lines = client.events(job).expect("events");
    assert!(
        lines
            .iter()
            .any(|l| l.contains("event=worker-death") && l.contains("stalled")),
        "{lines:?}"
    );

    handle.stop();
    runner.join().expect("server thread").expect("server run");
}

#[test]
fn a_complete_status_implies_the_completion_commit() {
    // Twenty never-seen jobs in a row (the label is part of a log's
    // identity): each needs its own commit, and the instant the client is
    // told `Complete` that commit must be in the journal and in the file.
    let scratch = Scratch::new("commit-order");
    let logs = write_corpus(scratch.path());
    let store_path = scratch.path().join("store.sqps");
    let config = ServeConfig {
        store_path: Some(store_path.clone()),
        ..base_config(WorkerCommand::new(WORKER))
    };
    let (addr, handle, runner) = start_server(config);
    let mut client = Client::connect(&addr).expect("connect");

    for round in 0..20 {
        let label = format!("round{round:02}");
        let path = logs[round % logs.len()].path.display().to_string();
        let (job, _) = client
            .submit(
                Population::Unique,
                RecoveryPolicy::Auto,
                vec![(label.clone(), path)],
            )
            .expect("submit");
        let status = client.wait_settled(job, SETTLE).expect("wait");
        assert_eq!(status.phase, JobPhase::Complete, "{}", status.error);

        let lines = client.events(job).expect("events");
        assert!(
            lines.iter().any(|l| l.contains("event=store-commit")),
            "round {round}: complete before its store-commit: {lines:?}"
        );
        // A copy, so the recovery scan of `open` never touches the live file.
        let copy = scratch.path().join("store-copy.sqps");
        std::fs::copy(&store_path, &copy).expect("copy store");
        let (store, recovery) = SnapshotStore::open(&copy).expect("open store copy");
        assert!(recovery.is_clean(), "round {round}: {recovery}");
        assert!(
            store
                .jobs()
                .iter()
                .any(|manifest| manifest.logs.len() == 1 && manifest.logs[0].label == label),
            "round {round}: complete, but no manifest for {label} in the store file"
        );
    }

    handle.stop();
    runner.join().expect("server thread").expect("server run");
}

#[test]
fn two_clients_share_one_store_without_disturbing_each_other() {
    let scratch = Scratch::new("two-clients");
    let logs = write_corpus(scratch.path());
    let config = ServeConfig {
        store_path: Some(scratch.path().join("store.sqps")),
        max_restarts: 1,
        ..base_config(WorkerCommand::new(WORKER))
    };
    let (addr, handle, runner) = start_server(config);

    // Overlapping jobs submitted at the same moment: both hash all their
    // logs (outside the store lock), and whichever partitions the other job
    // has already staged may or may not be store hits — either way each
    // report must equal the fused engine's over that job's own logs.
    let go = std::sync::Barrier::new(2);
    std::thread::scope(|scope| {
        for subset in [&logs[..2], &logs[1..]] {
            let (addr, go) = (&addr, &go);
            scope.spawn(move || {
                let reference = fused_reference(subset, Population::Unique);
                let mut client = Client::connect(addr).expect("connect");
                go.wait();
                let (job, partitions) = client
                    .submit(
                        Population::Unique,
                        RecoveryPolicy::Auto,
                        submit_specs(subset),
                    )
                    .expect("submit");
                assert_eq!(partitions, subset.len() as u64);
                let status = client.wait_settled(job, SETTLE).expect("wait");
                assert_eq!(status.phase, JobPhase::Complete, "{}", status.error);
                let report = client.report(job, true).expect("report");
                assert!(report.complete);
                assert_eq!(report.text, reference);
            });
        }
    });

    // A log that cannot be read at submit time gets no key (so the job can
    // never be persisted under a wrong identity) and still goes to a
    // worker, whose exit is the job's error.
    let missing = scratch.path().join("missing.log");
    let mut client = Client::connect(&addr).expect("connect");
    let mut specs = submit_specs(&logs[..1]);
    specs.push(("ghost".to_string(), missing.display().to_string()));
    let (job, _) = client
        .submit(Population::Unique, RecoveryPolicy::Auto, specs)
        .expect("submit");
    let status = client.wait_settled(job, SETTLE).expect("wait");
    assert_eq!(status.phase, JobPhase::Failed);
    assert!(
        status.error.contains("partition 1 failed") && status.error.contains("worker exited"),
        "{}",
        status.error
    );
    let keys = handle
        .jobs()
        .with(job, |state| state.keys.clone())
        .expect("job");
    assert!(keys[0].is_some() && keys[1].is_none(), "{keys:?}");
    let lines = client.events(job).expect("events");
    assert!(
        lines
            .iter()
            .any(|l| l.contains("event=worker-start") && l.contains("partition=1")),
        "{lines:?}"
    );

    handle.stop();
    runner.join().expect("server thread").expect("server run");
}

#[test]
fn the_default_thread_budget_divides_the_cores_among_running_workers() {
    let scratch = Scratch::new("thread-budget");
    let logs = write_corpus(scratch.path());
    let config = ServeConfig {
        worker_threads: 0,
        ..base_config(WorkerCommand::new(WORKER))
    };
    assert_eq!(config.worker_slots, 2);
    let (addr, handle, runner) = start_server(config);
    let mut client = Client::connect(&addr).expect("connect");
    let mut run = |logs: &[LogSpec]| {
        let (job, _) = client
            .submit(Population::Unique, RecoveryPolicy::Auto, submit_specs(logs))
            .expect("submit");
        let status = client.wait_settled(job, SETTLE).expect("wait");
        assert_eq!(status.phase, JobPhase::Complete, "{}", status.error);
        assert_eq!(status.restarts, 0);
        let report = client.report(job, true).expect("report");
        assert_eq!(report.text, fused_reference(logs, Population::Unique));
        worker_threads_started(&handle, job)
    };
    // The threads a worker runs while `running` workers share the machine;
    // a pinned `SPARQLOG_WORKERS` is inherited instead.
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let budget = |running: usize| {
        sparqlog::core::corpus::workers_override().unwrap_or((cores / running).max(1)) as u64
    };

    // A lone log on an idle daemon gets every core. It runs first: a daemon
    // that has just completed a job may still be releasing that runner.
    assert_eq!(run(&logs[1..2]), [(0, budget(1))]);

    // Four logs on two slots: the first three claims each see a sibling
    // running or queued; the last sees one only if partition 2 still runs.
    let mut four = logs.clone();
    four.push(LogSpec::new("again", logs[0].path.clone()));
    let started = run(&four);
    assert_eq!(started.len(), 4, "{started:?}");
    let shared = [(0, budget(2)), (1, budget(2)), (2, budget(2))];
    assert_eq!(started[..3], shared, "{started:?}");
    assert!(
        [(3, budget(2)), (3, budget(1))].contains(&started[3]),
        "{started:?}"
    );

    handle.stop();
    runner.join().expect("server thread").expect("server run");
}
