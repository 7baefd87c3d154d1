//! The networked analysis service, exercised end-to-end over real sockets
//! and real worker processes: concurrent clients must read byte-identical
//! complete reports (equal to the single-process fused engine's), a client
//! that stops reading must stall only its own session and must not keep a
//! stopping daemon from joining it, idle sessions must end the moment the
//! daemon stops, a graceful drain must finish
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

mod common;

use common::{
    fused_reference, serve_config, start_server, start_server_on, submit_specs, tiled_day_logs,
    write_logs, Scratch, SETTLE, THREE_DATASETS, WORKER,
};
use sparqlog::core::report::full_report;
use sparqlog::core::{Population, RecoveryPolicy};
use sparqlog::obs::env;
use sparqlog::persist::SnapshotStore;
use sparqlog::serve::protocol::{self, Request, Response};
use sparqlog::serve::{Client, ClientError, JobPhase, ServeAddr, ServeConfig, ServerHandle};
use sparqlog::shard::codec::{write_frame, write_stream_header, FrameReader};
use sparqlog::shard::{LogSpec, WorkerCommand};
use std::io::{self, BufReader, BufWriter, Write};
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Writes a duplicate-heavy corpus (three synthesized day logs, each tiled
/// three times, with cross-log duplicates) to one file per log.
fn write_corpus(dir: &Path) -> Vec<LogSpec> {
    write_logs(dir, &tiled_day_logs(&THREE_DATASETS, 60, 900, 3, 20))
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

#[test]
fn concurrent_clients_read_byte_identical_complete_reports() {
    let scratch = Scratch::new("concurrent");
    let logs = write_corpus(scratch.path());
    let reference = full_report(&fused_reference(&logs, Population::Unique).corpus);
    let (addr, handle, runner) = start_server(serve_config(WorkerCommand::new(WORKER)));

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

/// Requests a slow client pipelines: `Status` of jobs that do not exist,
/// so each answer is an error naming its job and the answers show their
/// order. Their frames and answers overrun the default socket buffers
/// several times over, so the client's session stalls on a write.
const PIPELINED: u64 = 100_000;
const FIRST_UNKNOWN_JOB: u64 = 1 << 40;

/// A daemon listening on a Unix socket in `scratch`.
fn start_unix_server(scratch: &Scratch) -> (ServeAddr, ServerHandle, JoinHandle<io::Result<()>>) {
    let addr = ServeAddr::Unix(scratch.path().join("serve.sock"));
    start_server_on(serve_config(WorkerCommand::new(WORKER)), &addr)
}

#[test]
fn a_new_connection_is_answered_without_waiting_for_the_accept_loop() {
    // The accept loop blocks in `accept`, so a fresh connection's session
    // starts at once; a loop that slept between polls made each one wait.
    let scratch = Scratch::new("connect");
    let (addr, handle, runner) = start_unix_server(&scratch);
    let mut times: Vec<Duration> = (0..50)
        .map(|_| {
            let start = Instant::now();
            Client::connect(&addr)
                .expect("connect")
                .ping()
                .expect("ping");
            start.elapsed()
        })
        .collect();
    times.sort_unstable();
    let median = times[times.len() / 2];
    assert!(
        median < Duration::from_millis(5),
        "median connect + ping {median:?}: {times:?}"
    );

    handle.stop();
    runner.join().expect("server thread").expect("server run");
}

#[test]
fn stop_ends_idle_sessions_at_once() {
    // A stopping daemon shuts every session socket down, so a session
    // blocked reading from an idle client ends at once; one that rechecked
    // a flag between read timeouts ended only when its timeout expired.
    let scratch = Scratch::new("idle");
    let mut times: Vec<Duration> = (0..10)
        .map(|_| {
            let (addr, handle, runner) = start_unix_server(&scratch);
            let mut clients: Vec<Client> = (0..3)
                .map(|_| Client::connect(&addr).expect("connect"))
                .collect();
            for client in &mut clients {
                client.ping().expect("ping");
            }
            let start = Instant::now();
            handle.stop();
            runner.join().expect("server thread").expect("server run");
            let elapsed = start.elapsed();
            for client in &mut clients {
                assert!(client.ping().is_err(), "a session outlived the daemon");
            }
            elapsed
        })
        .collect();
    times.sort_unstable();
    let median = times[times.len() / 2];
    assert!(
        median < Duration::from_millis(20),
        "median stop with 3 idle sessions {median:?}: {times:?}"
    );
}

/// Connects to `addr` and, on a thread of its own, writes the stream
/// header and the [`PIPELINED`] requests without reading a response.
fn pipeline_unread(addr: &ServeAddr) -> (UnixStream, JoinHandle<io::Result<()>>) {
    let ServeAddr::Unix(path) = addr else {
        unreachable!()
    };
    let socket = UnixStream::connect(path).expect("connect slow");
    let requests = socket.try_clone().expect("clone");
    let writer = std::thread::spawn(move || {
        let mut out = BufWriter::new(requests);
        write_stream_header(&mut out)?;
        for job in FIRST_UNKNOWN_JOB..FIRST_UNKNOWN_JOB + PIPELINED {
            write_frame(&mut out, &Request::Status { job }.to_payload())?;
        }
        out.flush()
    });
    (socket, writer)
}

/// Watches `pipeliner` for a second, in which the slow session fills the
/// socket buffers and blocks on a write: its client must still hold
/// requests it cannot send.
fn assert_stalled(pipeliner: &JoinHandle<io::Result<()>>) {
    let deadline = Instant::now() + Duration::from_secs(1);
    while Instant::now() < deadline {
        assert!(
            !pipeliner.is_finished(),
            "the slow session never stalled: all its requests were read"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

#[test]
fn a_slow_consumer_blocks_only_its_own_session() {
    let scratch = Scratch::new("slow");
    let (addr, handle, runner) = start_unix_server(&scratch);
    let (slow, pipeliner) = pipeline_unread(&addr);
    assert_stalled(&pipeliner);

    // A healthy session served in the meantime must not feel it.
    let started = Instant::now();
    let mut healthy = Client::connect(&addr).expect("connect healthy");
    healthy.ping().expect("healthy ping");
    let latency = started.elapsed();
    assert!(
        latency < Duration::from_millis(1500),
        "healthy session stalled behind the slow one: {latency:?}"
    );

    // Nothing is lost: once the slow client reads, every response arrives,
    // in request order.
    let mut frames = FrameReader::new(BufReader::new(slow));
    frames.read_header().expect("server header");
    for job in FIRST_UNKNOWN_JOB..FIRST_UNKNOWN_JOB + PIPELINED {
        let response = protocol::read_response(&mut frames)
            .expect("read response")
            .unwrap_or_else(|| panic!("stream ended before the answer for job {job}"));
        let expected = format!("unknown job {job}");
        assert!(
            matches!(&response, Response::Error { message } if *message == expected),
            "{response:?} where {expected:?} was due"
        );
    }
    pipeliner
        .join()
        .expect("pipeliner")
        .expect("pipelined requests");

    handle.stop();
    runner.join().expect("server thread").expect("server run");
}

#[test]
fn stop_joins_a_session_blocked_on_a_client_that_never_reads() {
    let scratch = Scratch::new("unread");
    let (addr, handle, runner) = start_unix_server(&scratch);
    let (_slow, pipeliner) = pipeline_unread(&addr);
    // A session that answers means the slow one has been accepted too.
    Client::connect(&addr)
        .expect("connect")
        .ping()
        .expect("ping");
    assert_stalled(&pipeliner);

    handle.stop();
    let deadline = Instant::now() + Duration::from_secs(10);
    while !runner.is_finished() {
        assert!(
            Instant::now() < deadline,
            "stop hangs on a session blocked writing"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    runner.join().expect("server thread").expect("server run");
    // `run` returned, so it joined every session thread: each closed.
    let records = handle.events().records();
    let count = |event: &str| records.iter().filter(|r| r.event() == event).count();
    assert_eq!(count("session-open"), 2);
    assert_eq!(count("session-close"), 2);
    // The daemon closed the socket: the writes still pending fail.
    assert!(pipeliner.join().expect("pipeliner").is_err());
}

#[test]
fn graceful_drain_finishes_in_flight_jobs_and_rejects_new_ones() {
    let scratch = Scratch::new("drain");
    let logs = write_corpus(scratch.path());
    let reference = full_report(&fused_reference(&logs, Population::Valid).corpus);
    let (addr, handle, runner) = start_server(serve_config(WorkerCommand::new(WORKER)));

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
        let reference = full_report(&fused_reference(&logs, Population::Unique).corpus);
        let flag = scratch.path().join("fault.flag");
        let worker = WorkerCommand::new(WORKER)
            .env(env::SHARD_FAULT, fault)
            .env(env::SHARD_FAULT_SHARD, "1")
            .env(env::SHARD_FAULT_FLAG, flag.display().to_string());
        let (addr, handle, runner) = start_server(serve_config(worker));

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
    let reference = full_report(&fused_reference(&logs, Population::Unique).corpus);
    let flag = scratch.path().join("fault.flag");
    let worker = WorkerCommand::new(WORKER)
        .env(env::SHARD_FAULT, "delay")
        .env(env::SHARD_FAULT_SHARD, "0")
        .env(env::SHARD_FAULT_DELAY_MS, "30000")
        .env(env::SHARD_FAULT_FLAG, flag.display().to_string());
    let (addr, handle, runner) = start_server(serve_config(worker));

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
    let reference = full_report(&fused_reference(&logs, Population::Unique).corpus);
    let flag = scratch.path().join("fault.flag");
    let worker = WorkerCommand::new(WORKER)
        .env(env::SHARD_FAULT, "delay")
        .env(env::SHARD_FAULT_SHARD, "0")
        .env(env::SHARD_FAULT_DELAY_MS, "1500")
        .env(env::SHARD_FAULT_FLAG, flag.display().to_string());
    let mut config = serve_config(worker);
    config.supervisor.stall_timeout = Some(Duration::from_millis(500));
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
    let reference = full_report(&fused_reference(&logs, Population::Unique).corpus);
    let flag = scratch.path().join("fault.flag");
    let worker = WorkerCommand::new(WORKER)
        .env(env::SHARD_FAULT, "stall")
        .env(env::SHARD_FAULT_SHARD, "0")
        .env(env::SHARD_FAULT_FLAG, flag.display().to_string());
    let mut config = serve_config(worker);
    config.supervisor.stall_timeout = Some(Duration::from_millis(500));
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
        ..serve_config(WorkerCommand::new(WORKER))
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
    let mut config = ServeConfig {
        store_path: Some(scratch.path().join("store.sqps")),
        ..serve_config(WorkerCommand::new(WORKER))
    };
    config.supervisor.max_restarts = 1;
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
                let reference = full_report(&fused_reference(subset, Population::Unique).corpus);
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
    let mut config = serve_config(WorkerCommand::new(WORKER));
    config.supervisor.worker_threads = 0;
    assert_eq!(config.supervisor.slots, 2);
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
        assert_eq!(
            report.text,
            full_report(&fused_reference(logs, Population::Unique).corpus)
        );
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

#[test]
fn workers_heartbeat_only_under_a_stall_timeout() {
    // Only a stall timeout reads a worker's activity clock, so only then
    // does a worker get `--heartbeat-ms`, at a quarter of the timeout. A
    // shell wrapper records the worker's arguments, then runs it.
    let scratch = Scratch::new("heartbeat-argv");
    let logs = write_corpus(scratch.path());
    for stall_timeout in [None, Some(Duration::from_secs(60))] {
        let argv = scratch
            .path()
            .join(format!("argv-{}", stall_timeout.is_some()));
        let mut worker = WorkerCommand::new("/bin/sh");
        worker.args = vec![
            "-c".to_string(),
            r#"out=$1; shift; echo "$@" >> "$out"; exec "$0" "$@""#.to_string(),
            WORKER.to_string(),
            argv.display().to_string(),
        ];
        let mut config = serve_config(worker);
        config.supervisor.stall_timeout = stall_timeout;
        let (addr, handle, runner) = start_server(config);
        let mut client = Client::connect(&addr).expect("connect");
        let (job, _) = client
            .submit(
                Population::Unique,
                RecoveryPolicy::Auto,
                submit_specs(&logs[..1]),
            )
            .expect("submit");
        let status = client.wait_settled(job, SETTLE).expect("wait");
        assert_eq!(status.phase, JobPhase::Complete, "{}", status.error);
        let recorded = std::fs::read_to_string(&argv).expect("recorded argv");
        assert_eq!(
            recorded.contains("--heartbeat-ms 15000"),
            stall_timeout.is_some(),
            "stall timeout {stall_timeout:?}: {recorded}"
        );

        handle.stop();
        runner.join().expect("server thread").expect("server run");
    }
}
