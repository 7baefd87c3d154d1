//! The analysis daemon: a TCP or Unix-socket listener accepting concurrent
//! client sessions, each a length-prefixed request/response stream
//! ([`crate::protocol`]). Submitted jobs fan out through the
//! [`Supervisor`]'s worker pool; every
//! session answers from the same merged [`Jobs`] state, so two clients
//! asking for the same complete job get byte-identical reports.
//!
//! # Threading model
//!
//! No async runtime: one accept loop, blocked in `accept` until a client
//! connects or a stop wakes it, one std thread per session, and the
//! supervisor's fixed runner pool. A session reads a request,
//! answers it and writes the response to its own socket before it reads
//! the next. A client that pipelines requests without reading the
//! responses stalls only its own session, which then holds one response
//! in memory; other sessions keep serving.
//!
//! # Shutdown
//!
//! A `Drain` request (or [`ServerHandle::drain`]) only flips the draining
//! flag: new `Submit`s are rejected, everything else keeps serving.
//! [`ServerHandle::stop`] or SIGTERM/SIGINT additionally stops the accept
//! loop, waits (up to 60 s) for in-flight jobs to settle, closes every
//! session, and returns from [`Server::run`]. `stop` wakes the blocked
//! `accept` by connecting to the listener; a signal, by shutting the
//! listening socket down ([`crate::signal`]). `run` then ends every
//! pending `Wait` ([`Jobs::close`]) and shuts every session socket down, so
//! a session blocked reading from a client that sends nothing sees the end
//! of the stream, and one blocked writing to a client that never reads
//! fails; it then joins the session threads.

use crate::events::EventLog;
use crate::job::{load_logs, Jobs};
use crate::protocol::{self, Request, Response};
use crate::signal;
use crate::supervisor::{Supervisor, SupervisorConfig};
use sparqlog_core::cache::CacheStats;
use sparqlog_obs::{self as obs, EventRecord};
use sparqlog_persist::SnapshotStore;
use sparqlog_shard::codec::{write_stream_header, FrameReader};
use sparqlog_shard::LogSpec;
use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, Weak};
use std::thread::JoinHandle;
use std::time::Duration;

/// How long a graceful stop waits for in-flight jobs to settle.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(60);

/// How long the accept loop pauses after a failed `accept` (say, out of
/// descriptors) before it tries again.
const ACCEPT_RETRY: Duration = Duration::from_millis(20);

/// Daemon configuration.
#[derive(Debug, Clone, Default)]
pub struct ServeConfig {
    /// The worker pool: how to launch workers, how many run at once, their
    /// stall timeout and their restart policy.
    pub supervisor: SupervisorConfig,
    /// Mirror the event log to this file (the CI fault jobs upload it).
    pub event_log_path: Option<PathBuf>,
    /// Persist completed jobs to a crash-safe snapshot store at this path
    /// ([`sparqlog_persist::SnapshotStore`]): settled jobs warm-start
    /// after a restart, and resubmitted logs merge from the store without
    /// spawning workers.
    pub store_path: Option<PathBuf>,
}

/// Where the daemon listens (or a client connects).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeAddr {
    /// A TCP address, e.g. `127.0.0.1:7878` (`127.0.0.1:0` binds an
    /// ephemeral port — read it back with [`Server::local_addr`]).
    Tcp(String),
    /// A Unix-domain socket path (unix targets only).
    Unix(PathBuf),
}

/// One connected socket, TCP or Unix: the client's connection and each of
/// the daemon's sessions. It reads and writes through a shared reference
/// too, so a session's socket can be shut down from another thread.
#[derive(Debug)]
pub(crate) enum Socket {
    Tcp(TcpStream),
    #[cfg(unix)]
    Unix(std::os::unix::net::UnixStream),
}

impl Socket {
    pub(crate) fn connect(addr: &ServeAddr) -> io::Result<Socket> {
        match addr {
            ServeAddr::Tcp(spec) => Ok(Socket::Tcp(TcpStream::connect(spec.as_str())?)),
            ServeAddr::Unix(path) => {
                #[cfg(unix)]
                {
                    Ok(Socket::Unix(std::os::unix::net::UnixStream::connect(path)?))
                }
                #[cfg(not(unix))]
                {
                    let _ = path;
                    Err(io::Error::other("unix sockets unsupported on this target"))
                }
            }
        }
    }

    /// Shuts both directions down: a read blocked on the socket, in any
    /// thread, returns the end of the stream and a blocked write fails.
    fn shutdown(&self) {
        let _ = match self {
            Socket::Tcp(stream) => stream.shutdown(Shutdown::Both),
            #[cfg(unix)]
            Socket::Unix(stream) => stream.shutdown(Shutdown::Both),
        };
    }
}

impl Read for &Socket {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Socket::Tcp(stream) => (&*stream).read(buf),
            #[cfg(unix)]
            Socket::Unix(stream) => (&*stream).read(buf),
        }
    }
}

impl Write for &Socket {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Socket::Tcp(stream) => (&*stream).write(buf),
            #[cfg(unix)]
            Socket::Unix(stream) => (&*stream).write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl Read for Socket {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        (&*self).read(buf)
    }
}

impl Write for Socket {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        (&*self).write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// The bound listener, abstracted over address families.
#[derive(Debug)]
enum Listener {
    Tcp(TcpListener),
    #[cfg(unix)]
    Unix(std::os::unix::net::UnixListener, PathBuf),
}

impl Listener {
    /// Blocks until a client connects.
    fn accept(&self) -> io::Result<Socket> {
        match self {
            Listener::Tcp(listener) => listener.accept().map(|(stream, _)| Socket::Tcp(stream)),
            #[cfg(unix)]
            Listener::Unix(listener, _) => {
                listener.accept().map(|(stream, _)| Socket::Unix(stream))
            }
        }
    }

    #[cfg(unix)]
    fn raw_fd(&self) -> std::os::fd::RawFd {
        use std::os::fd::AsRawFd;
        match self {
            Listener::Tcp(listener) => listener.as_raw_fd(),
            Listener::Unix(listener, _) => listener.as_raw_fd(),
        }
    }

    fn local_addr(&self) -> io::Result<ServeAddr> {
        match self {
            Listener::Tcp(listener) => Ok(ServeAddr::Tcp(listener.local_addr()?.to_string())),
            #[cfg(unix)]
            Listener::Unix(_, path) => Ok(ServeAddr::Unix(path.clone())),
        }
    }
}

impl Drop for Listener {
    fn drop(&mut self) {
        #[cfg(unix)]
        if let Listener::Unix(_, path) = self {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// State shared between the accept loop, sessions, and handles.
#[derive(Debug)]
struct Shared {
    /// The listener's own address, which [`ServerHandle::stop`] connects to
    /// to wake the accept loop.
    addr: ServeAddr,
    jobs: Arc<Jobs>,
    events: Arc<EventLog>,
    supervisor: Supervisor,
    store: Option<Arc<Mutex<SnapshotStore>>>,
    draining: AtomicBool,
    stopping: AtomicBool,
    sessions: AtomicU64,
}

impl Shared {
    fn begin_drain(&self, reason: &str) {
        if !self.draining.swap(true, Ordering::AcqRel) {
            self.events
                .emit_record(EventRecord::new("drain").with("reason", reason));
        }
    }
}

/// A control handle onto a running server, usable from any thread.
#[derive(Debug, Clone)]
pub struct ServerHandle {
    shared: Arc<Shared>,
}

impl ServerHandle {
    /// Starts draining: new `Submit`s are rejected; status, report, and
    /// event queries keep serving and the accept loop keeps running.
    pub fn drain(&self) {
        self.shared.begin_drain("handle");
    }

    /// Requests a graceful stop: drain, wait for in-flight jobs to settle,
    /// close sessions, return from [`Server::run`].
    pub fn stop(&self) {
        self.shared.begin_drain("shutdown");
        self.shared.stopping.store(true, Ordering::Release);
        // Wakes the accept loop, which sees the flag and drops this
        // connection; a loop that has already returned refuses it.
        let _ = Socket::connect(&self.shared.addr);
    }

    /// Whether the server is draining.
    pub fn draining(&self) -> bool {
        self.shared.draining.load(Ordering::Acquire)
    }

    /// The server's job table (for in-process observers and tests).
    pub fn jobs(&self) -> Arc<Jobs> {
        Arc::clone(&self.shared.jobs)
    }

    /// The server's event log (for in-process observers and tests).
    pub fn events(&self) -> Arc<EventLog> {
        Arc::clone(&self.shared.events)
    }
}

/// A bound (but not yet running) analysis daemon.
#[derive(Debug)]
pub struct Server {
    listener: Listener,
    shared: Arc<Shared>,
}

impl Server {
    /// Binds the listener and starts the supervisor's worker pool. The
    /// accept loop does not run until [`Server::run`].
    pub fn bind(config: ServeConfig, addr: &ServeAddr) -> io::Result<Server> {
        let listener = match addr {
            ServeAddr::Tcp(spec) => Listener::Tcp(TcpListener::bind(spec.as_str())?),
            ServeAddr::Unix(path) => {
                #[cfg(unix)]
                {
                    // A stale socket file from a crashed predecessor would
                    // make bind fail with AddrInUse; replace it.
                    let _ = std::fs::remove_file(path);
                    let listener = std::os::unix::net::UnixListener::bind(path)?;
                    Listener::Unix(listener, path.clone())
                }
                #[cfg(not(unix))]
                {
                    let _ = path;
                    return Err(io::Error::other("unix sockets unsupported on this target"));
                }
            }
        };
        let events = Arc::new(match &config.event_log_path {
            Some(path) => EventLog::with_file(path)?,
            None => EventLog::new(),
        });
        let jobs = Arc::new(Jobs::default());
        let store = match &config.store_path {
            Some(path) => {
                let (store, report) = SnapshotStore::open(path)?;
                // The recovery outcome as typed fields (reason is the
                // stable one-token key) — consumers match on fields, not
                // on the report's prose.
                events.emit_record(
                    EventRecord::new("store-open")
                        .with("path", path.display())
                        .with("reason", report.reason.key())
                        .with("kept_bytes", report.kept_bytes)
                        .with("dropped_bytes", report.dropped_bytes())
                        .with("dropped_records", report.dropped_records)
                        .with("commits", report.commits)
                        .with("snapshots", report.snapshots)
                        .with("jobs", report.jobs)
                        .with("report", report.to_string()),
                );
                Some(Arc::new(Mutex::new(store)))
            }
            None => None,
        };
        if let Some(store) = &store {
            warm_start(store, &jobs, &events);
        }
        let supervisor = Supervisor::start(
            config.supervisor,
            Arc::clone(&jobs),
            Arc::clone(&events),
            store.clone(),
        );
        let shared = Arc::new(Shared {
            addr: listener.local_addr()?,
            jobs,
            events,
            supervisor,
            store,
            draining: AtomicBool::new(false),
            stopping: AtomicBool::new(false),
            sessions: AtomicU64::new(0),
        });
        Ok(Server { listener, shared })
    }

    /// The bound address (with the ephemeral port resolved for
    /// `127.0.0.1:0`-style binds).
    pub fn local_addr(&self) -> io::Result<ServeAddr> {
        self.listener.local_addr()
    }

    /// A control handle for draining/stopping from another thread.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Runs the accept loop until [`ServerHandle::stop`] or
    /// SIGTERM/SIGINT, then drains gracefully: waits for in-flight jobs to
    /// settle (for up to a minute), closes every session, and returns.
    pub fn run(self) -> io::Result<()> {
        let shared = self.shared;
        let mut sessions: Vec<(Weak<Socket>, JoinHandle<()>)> = Vec::new();
        shared.events.emit("event=serve-start");
        #[cfg(unix)]
        let wake = signal::wake_on_termination(self.listener.raw_fd());
        let stop_requested = || {
            if signal::termination_requested() {
                shared.begin_drain("signal");
                shared.stopping.store(true, Ordering::Release);
            }
            shared.stopping.load(Ordering::Acquire)
        };
        // Checked before each accept, for a stop that came before the loop
        // blocked, and after it, for the connection or shutdown that woke it.
        while !stop_requested() {
            let accepted = self.listener.accept();
            if stop_requested() {
                break;
            }
            match accepted {
                Ok(socket) => {
                    let id = shared.sessions.fetch_add(1, Ordering::AcqRel) + 1;
                    shared
                        .events
                        .emit(format!("event=session-open session={id}"));
                    obs::global().counter("serve_sessions_total").incr();
                    obs::global().gauge("serve_sessions_open").add(1);
                    let ctx = Arc::clone(&shared);
                    reap_finished(&mut sessions);
                    // The session thread holds the socket; the list only
                    // reaches it to shut it down at stop.
                    let socket = Arc::new(socket);
                    let reach = Arc::downgrade(&socket);
                    let thread = std::thread::spawn(move || session(&socket, id, &ctx));
                    sessions.push((reach, thread));
                }
                Err(_) => std::thread::sleep(ACCEPT_RETRY),
            }
        }
        #[cfg(unix)]
        drop(wake);
        shared.begin_drain("shutdown");
        let settled = shared.jobs.wait_all_settled(DRAIN_TIMEOUT);
        shared.supervisor.wait_idle(DRAIN_TIMEOUT);
        // Flush anything still staged in the store (a no-op after normal
        // per-job commits, but it catches work settled mid-drain).
        if let Some(store) = &shared.store {
            let mut guard = store.lock().expect("snapshot store");
            match guard.commit() {
                Ok(seq) => shared.events.emit(format!(
                    "event=store-flush seq={seq} snapshots={}",
                    guard.snapshots()
                )),
                Err(error) => shared
                    .events
                    .emit_record(EventRecord::new("store-error").with("error", error)),
            }
        }
        shared
            .events
            .emit(format!("event=serve-stop settled={settled}"));
        shared.jobs.close();
        for (socket, _) in &sessions {
            if let Some(socket) = socket.upgrade() {
                socket.shutdown();
            }
        }
        for (_, thread) in sessions {
            let _ = thread.join();
        }
        Ok(())
    }
}

/// Re-registers every job manifest the store recovered as a settled job,
/// each partition merged from its persisted snapshot and the job then
/// released to keys only, like any job whose completion commit succeeded —
/// a restarted daemon serves byte-identical reports for committed jobs
/// without re-analysing a single log.
pub(crate) fn warm_start(store: &Mutex<SnapshotStore>, jobs: &Jobs, events: &EventLog) {
    let manifests = store.lock().expect("snapshot store").jobs().to_vec();
    let mut restored = 0u64;
    for manifest in manifests {
        // A manifest commits in the same fsync as (or after) its
        // snapshots and recovery truncates only suffixes, so the keys
        // must all resolve; guard against a damaged store anyway.
        let keys: Vec<u128> = manifest.logs.iter().map(|log| log.key).collect();
        let logs = match load_logs(store, &keys) {
            Ok(logs) => logs,
            Err(error) => {
                let reason = match error.kind() {
                    io::ErrorKind::NotFound => "missing-snapshot",
                    _ => "unreadable-snapshot",
                };
                events.emit_record(
                    EventRecord::new("warm-skip")
                        .with("reason", reason)
                        .with("error", error),
                );
                continue;
            }
        };
        let specs: Vec<LogSpec> = manifest
            .logs
            .iter()
            .map(|log| LogSpec::new(log.label.clone(), PathBuf::from(&log.path)))
            .collect();
        let job = jobs.create(manifest.population, manifest.recovery, specs);
        jobs.with(job, |state| {
            state.keys = keys.into_iter().map(Some).collect();
            for (partition, log) in logs.into_iter().enumerate() {
                state.merge_partition(partition, Arc::new(log), CacheStats::default(), 0);
            }
            state.release_logs();
        });
        events.emit(format!(
            "event=job-warm-start job={job} partitions={}",
            manifest.logs.len()
        ));
        restored += 1;
    }
    if restored > 0 {
        events.emit(format!("event=warm-start jobs={restored}"));
    }
}

/// Joins the sessions whose threads have exited, so each closed
/// connection's thread is released at the next accept rather than at
/// shutdown.
fn reap_finished(sessions: &mut Vec<(Weak<Socket>, JoinHandle<()>)>) {
    let mut index = 0;
    while index < sessions.len() {
        if sessions[index].1.is_finished() {
            let _ = sessions.swap_remove(index).1.join();
        } else {
            index += 1;
        }
    }
}

fn session(socket: &Socket, id: u64, ctx: &Shared) {
    let _ = converse(socket, ctx);
    obs::global().gauge("serve_sessions_open").add(-1);
    ctx.events.emit(format!("event=session-close session={id}"));
}

/// Serves one connection, one request at a time, until the client hangs
/// up, the stream breaks or the server shuts the socket down. The server's
/// stream header goes out first, so neither end waits on the other's.
fn converse(socket: &Socket, ctx: &Shared) -> Result<(), Box<dyn std::error::Error>> {
    let mut frames = FrameReader::new(socket);
    write_stream_header(frames.get_mut())?;
    frames.read_header()?;
    while let Some(request) = protocol::read_request(&mut frames)? {
        protocol::write_response(frames.get_mut(), &answer(ctx, &request))?;
    }
    Ok(())
}

fn unknown_job(job: u64) -> Response {
    Response::Error {
        message: format!("unknown job {job}"),
    }
}

/// Answers a `Report`: taken under the job-table lock, loaded (for a job
/// that released its logs to the store) and rendered after it. A stored log
/// that fails to load is a `store-error` and an error answer; the daemon
/// keeps serving.
fn report(ctx: &Shared, job: u64, full: bool) -> Response {
    let Some(pending) = ctx.jobs.with(job, |state| state.pending_report(full)) else {
        return unknown_job(job);
    };
    match pending.render(ctx.store.as_deref()) {
        Ok(report) => Response::Report(report),
        Err(error) => {
            let message = format!("job {job}: {error}");
            ctx.events.emit_record(
                EventRecord::new("store-error")
                    .with("job", job)
                    .with("error", &message),
            );
            Response::Error { message }
        }
    }
}

/// Computes the one response a request maps to.
fn answer(ctx: &Shared, request: &Request) -> Response {
    obs::global().counter("serve_requests_total").incr();
    match request {
        Request::Ping => Response::Pong {
            draining: ctx.draining.load(Ordering::Acquire),
            jobs: ctx.jobs.accepted(),
        },
        Request::Submit {
            population,
            recovery,
            logs,
        } => {
            if ctx.draining.load(Ordering::Acquire) {
                return Response::Rejected {
                    message: "server is draining; new jobs are refused".to_string(),
                };
            }
            if logs.is_empty() {
                return Response::Error {
                    message: "submit requires at least one log".to_string(),
                };
            }
            let specs = logs
                .iter()
                .map(|(label, path)| LogSpec::new(label.clone(), path.clone()))
                .collect();
            let (job, partitions) = ctx.supervisor.submit(*population, *recovery, specs);
            Response::Accepted { job, partitions }
        }
        Request::Status { job } => ctx
            .jobs
            .with(*job, |state| state.status())
            .map_or_else(|| unknown_job(*job), Response::Status),
        Request::Wait { job, timeout_ms } => {
            obs::global().counter("serve_wait_requests_total").incr();
            // Blocks this session's thread only; a stopping daemon cuts
            // the wait short by closing the job table.
            ctx.jobs
                .wait_settled(*job, Duration::from_millis(*timeout_ms))
                .map_or_else(|| unknown_job(*job), Response::Status)
        }
        Request::Report { job, full } => report(ctx, *job, *full),
        Request::Drain => {
            ctx.begin_drain("client request");
            Response::Pong {
                draining: true,
                jobs: ctx.jobs.accepted(),
            }
        }
        Request::Events { job } => Response::Events {
            lines: if *job == 0 {
                ctx.events.snapshot()
            } else {
                ctx.events.for_job(*job)
            },
        },
        Request::Metrics => {
            // One merged snapshot: this process's live metrics plus
            // everything absorbed from worker epilogue frames.
            let snapshot = obs::global().snapshot();
            let text = snapshot.render_text();
            Response::Metrics { snapshot, text }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobState;
    use crate::protocol::JobReport;
    use sparqlog_core::corpus::{analyze_streams, FileLogReader, LogReader};
    use sparqlog_core::report::full_report;
    use sparqlog_core::{file_identity, PersistedLog, Population, RecoveryPolicy};
    use sparqlog_persist::{JobLog, JobRecord};

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "sparqlog-serve-server-{name}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// Two logs on disk (one with an unparsable line), their per-log
    /// results and keys, and the fused engine's report over both.
    fn analysed(dir: &std::path::Path) -> (Vec<LogSpec>, Vec<PersistedLog>, Vec<u128>, String) {
        let texts = [
            "SELECT ?x WHERE { ?x a <http://C> }\nASK { ?s ?p ?o }\nSELECT ?x WHERE { ?x a <http://C> }\n",
            "DESCRIBE <http://r>\nnot a query\nSELECT ?y WHERE { ?y <http://p> ?z . ?z <http://q> ?y }\n",
        ];
        let specs: Vec<LogSpec> = texts
            .iter()
            .enumerate()
            .map(|(i, text)| {
                let spec = LogSpec::new(format!("log{i}"), dir.join(format!("{i}.log")));
                std::fs::write(&spec.path, text).unwrap();
                spec
            })
            .collect();
        let readers = specs
            .iter()
            .map(|spec| {
                let reader = FileLogReader::open(spec.label.clone(), &spec.path).unwrap();
                Box::new(reader) as Box<dyn LogReader>
            })
            .collect();
        let fused = analyze_streams(readers, Population::Unique).unwrap();
        let reference = full_report(&fused.corpus);
        let logs = fused
            .summaries
            .into_iter()
            .zip(fused.corpus.datasets)
            .map(|(summary, analysis)| PersistedLog { summary, analysis })
            .collect();
        let keys = specs
            .iter()
            .map(|spec| file_identity(Population::Unique, &spec.label, &spec.path).unwrap())
            .collect();
        (specs, logs, keys, reference)
    }

    /// A job over `specs` with every partition merged from `logs`.
    fn merged_job(specs: &[LogSpec], logs: &[PersistedLog], keys: &[u128]) -> (Jobs, u64) {
        let jobs = Jobs::default();
        let job = jobs.create(Population::Unique, RecoveryPolicy::Lenient, specs.to_vec());
        jobs.with(job, |state| {
            state.keys = keys.iter().copied().map(Some).collect();
            for (partition, log) in logs.iter().enumerate() {
                let log = Arc::new(log.clone());
                assert!(state.merge_partition(partition, log, CacheStats::default(), 0));
            }
        });
        (jobs, job)
    }

    fn render(jobs: &Jobs, job: u64, store: Option<&Mutex<SnapshotStore>>) -> JobReport {
        let pending = jobs.with(job, |state| state.pending_report(true)).unwrap();
        pending.render(store).unwrap()
    }

    #[test]
    fn a_report_is_the_same_from_slots_from_the_store_and_after_a_restart() {
        let dir = scratch("release");
        let (specs, logs, keys, reference) = analysed(&dir);
        let path = dir.join("store.sqps");
        let (mut store, _) = SnapshotStore::open(&path).unwrap();
        for (key, log) in keys.iter().zip(&logs) {
            assert!(store.record_snapshot(*key, log).unwrap());
        }
        let manifest = JobRecord {
            population: Population::Unique,
            recovery: RecoveryPolicy::Lenient,
            logs: specs
                .iter()
                .zip(&keys)
                .map(|(spec, key)| JobLog {
                    key: *key,
                    label: spec.label.clone(),
                    path: spec.path.to_string_lossy().into_owned(),
                })
                .collect(),
        };
        assert!(store.record_job(&manifest).unwrap());
        store.commit().unwrap();
        let store = Mutex::new(store);

        let (jobs, job) = merged_job(&specs, &logs, &keys);
        let from_slots = render(&jobs, job, Some(&store));
        assert!(from_slots.complete);
        assert!(from_slots.errors > 0, "the unparsable line is tallied");
        assert_eq!(from_slots.text, reference);
        assert!(jobs.with(job, JobState::release_logs).unwrap());
        assert!(!jobs.with(job, |state| state.holds_logs()).unwrap());
        let status = jobs.with(job, |state| state.status()).unwrap();
        assert_eq!((status.completed, status.total), (2, 2));
        assert_eq!(status.errors, from_slots.errors);
        assert_eq!(render(&jobs, job, Some(&store)), from_slots);

        // A restarted daemon: reopen the store and warm-start the job.
        drop(store);
        let (store, report) = SnapshotStore::open(&path).unwrap();
        assert!(report.is_clean());
        let store = Mutex::new(store);
        let restored = Jobs::default();
        warm_start(&store, &restored, &EventLog::new());
        assert!(!restored.with(1, |state| state.holds_logs()).unwrap());
        assert_eq!(
            render(&restored, 1, Some(&store)),
            JobReport {
                job: 1,
                ..from_slots
            }
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_job_without_a_store_reports_from_its_slots() {
        let dir = scratch("store-less");
        let (specs, logs, keys, reference) = analysed(&dir);
        let (jobs, job) = merged_job(&specs, &logs, &keys);
        let report = render(&jobs, job, None);
        assert!(report.complete);
        assert_eq!(report.text, reference);
        assert!(jobs.with(job, |state| state.holds_logs()).unwrap());
        // Released regardless, it has nowhere to load from: an error, not
        // a panic.
        jobs.with(job, JobState::release_logs);
        let pending = jobs.with(job, |state| state.pending_report(true)).unwrap();
        assert!(pending.render(None).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_job_keeps_its_slots_until_every_log_is_filled_and_keyed() {
        let dir = scratch("refuse");
        let (specs, logs, keys, _) = analysed(&dir);
        let jobs = Jobs::default();
        let job = jobs.create(Population::Unique, RecoveryPolicy::Lenient, specs.clone());
        jobs.with(job, |state| {
            state.keys = vec![Some(keys[0]), None];
            state.merge_partition(0, Arc::new(logs[0].clone()), CacheStats::default(), 0);
            assert!(!state.release_logs(), "a slot is empty");
            state.merge_partition(1, Arc::new(logs[1].clone()), CacheStats::default(), 0);
            assert!(!state.release_logs(), "a log has no key");
            state.keys[1] = Some(keys[1]);
            state.failed = Some("boom".to_string());
            assert!(!state.release_logs(), "the job failed");
            assert!(state.holds_logs());
        });
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn finished_session_threads_are_joined_and_running_ones_kept() {
        let (release, parked) = std::sync::mpsc::channel::<()>();
        let running = std::thread::spawn(move || {
            let _ = parked.recv();
        });
        let mut sessions: Vec<(Weak<Socket>, JoinHandle<()>)> = (0..3)
            .map(|_| (Weak::new(), std::thread::spawn(|| ())))
            .collect();
        while !sessions.iter().all(|(_, thread)| thread.is_finished()) {
            std::thread::yield_now();
        }
        sessions.insert(1, (Weak::new(), running));
        reap_finished(&mut sessions);
        assert_eq!(sessions.len(), 1);
        assert!(!sessions[0].1.is_finished());
        release.send(()).unwrap();
        sessions.pop().unwrap().1.join().unwrap();
        reap_finished(&mut sessions);
        assert!(sessions.is_empty());
    }
}
